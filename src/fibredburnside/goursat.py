"""Subgroups of direct products: coordinate projections and kernels,
the star product, Goursat decomposition, and conjugation of
subgroup/character pairs."""

from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple

from .groups import (
    FiniteGroup,
    GroupError,
    ProductEmbedding,
    Subgroup,
    _permute_raw,
    elements_to_mask,
    product_embedding,
    quotient,
    subgroup_as_group,
    subgroup_of_mask,
)

__all__ = [
    "projection",
    "kernel_part",
    "star",
    "GoursatData",
    "goursat_decompose",
    "rebuild_from_goursat",
    "conjugate_pair",
]


def _check_indices(emb: ProductEmbedding, indices: Sequence[int]) -> tuple:
    ids = tuple(indices)
    k = len(emb.factors)
    if not ids or len(set(ids)) != len(ids) or list(ids) != sorted(ids):
        raise GroupError(f"invalid index set {indices!r}")
    if any(not 1 <= i <= k for i in ids):
        raise GroupError(f"index set {indices!r} out of range for {k} factors")
    return ids


def projection(emb: ProductEmbedding, D: Subgroup,
               indices: Sequence[int]) -> Subgroup:
    """Image of D under the coordinate projection p_i (or p_{i,j}, ...)."""
    if D.parent is not emb.ambient:
        raise GroupError("subgroup does not live in this product")
    ids = _check_indices(emb, indices)
    mask = 0
    if len(ids) == 1:
        p = emb.factor_projections[ids[0] - 1]
        for x in D.elements:
            mask |= 1 << p[x]
        return subgroup_of_mask(emb.factors[ids[0] - 1], mask)
    sub = product_embedding(*(emb.factors[i - 1] for i in ids))
    coords = emb.coords
    for x in D.elements:
        mask |= 1 << sub.encode(*(coords[x][i - 1] for i in ids))
    return subgroup_of_mask(sub.ambient, mask)


def kernel_part(emb: ProductEmbedding, D: Subgroup,
                indices: Sequence[int]) -> Subgroup:
    """k_i(D) (or k_{i,j}(D)): the projection of the part of D that is
    trivial off the chosen coordinates."""
    if D.parent is not emb.ambient:
        raise GroupError("subgroup does not live in this product")
    part = D.elements
    for i, p in enumerate(emb.factor_projections, 1):
        if i not in indices:
            part = tuple(x for x in part if not p[x])
    return projection(emb, Subgroup(D.parent, part, elements_to_mask(part)),
                      indices)


def star(emb_gh: ProductEmbedding, U: Subgroup,
         emb_hk: ProductEmbedding, V: Subgroup) -> Subgroup:
    """U * V = {(g,k) : exists h with (g,h) in U and (h,k) in V},
    a subgroup of G x K."""
    if len(emb_gh.factors) != 2 or len(emb_hk.factors) != 2:
        raise GroupError("star is defined for two-factor products")
    if U.parent is not emb_gh.ambient or V.parent is not emb_hk.ambient:
        raise GroupError("subgroup does not live in the stated product")
    if emb_gh.factors[1] is not emb_hk.factors[0]:
        raise GroupError("middle factors do not agree")
    emb_gk = product_embedding(emb_gh.factors[0], emb_hk.factors[1])
    by_h: dict = {}
    for x in U.elements:
        g, h = emb_gh.decode(x)
        by_h.setdefault(h, []).append(g)
    mask = 0
    for y in V.elements:
        h, k = emb_hk.decode(y)
        for g in by_h.get(h, ()):
            mask |= 1 << emb_gk.encode(g, k)
    return subgroup_of_mask(emb_gk.ambient, mask)


class GoursatData(NamedTuple):
    """The five-tuple classifying a subgroup D of G x H: projections E and
    F, kernels k1 and k2, and the induced isomorphism F/k2 -> E/k1 (as a
    homomorphism between the quotient groups, together with the quotient
    data needed to use it).  The maps are image tuples: the projections
    list the coset of each element of E (or F), ascending."""

    E: Subgroup
    k1: Subgroup
    F: Subgroup
    k2: Subgroup
    iso: tuple
    e_quotient: FiniteGroup
    e_projection: tuple
    f_quotient: FiniteGroup
    f_projection: tuple


def _quotient_of_subgroup(S: Subgroup, N: Subgroup):
    """Quotient of a subgroup (given in ambient coordinates) by a normal
    subgroup of it; returns (Q, projection), the projection listing the
    coset of each element of S, ascending.  S is reindexed in ascending
    order, so the projection of the reindexed group is that list."""
    grp, _ = subgroup_as_group(S)
    pos = {x: i for i, x in enumerate(S.elements)}
    els = tuple(pos[x] for x in N.elements)
    return quotient(grp, Subgroup(grp, els, elements_to_mask(els)))


def goursat_decompose(emb: ProductEmbedding, D: Subgroup) -> GoursatData:
    """Goursat data of D <= G x H.  The isomorphism F/k2 -> E/k1 sends
    h k2 to g k1 for any (g, h) in D; it is determined by D."""
    if len(emb.factors) != 2:
        raise GroupError("goursat decomposition needs a two-factor product")
    E = projection(emb, D, (1,))
    k1 = kernel_part(emb, D, (1,))
    F = projection(emb, D, (2,))
    k2 = kernel_part(emb, D, (2,))
    EQ, eproj = _quotient_of_subgroup(E, k1)
    FQ, fproj = _quotient_of_subgroup(F, k2)
    emap = dict(zip(E.elements, eproj))
    fmap = dict(zip(F.elements, fproj))
    images = [-1] * FQ.order
    for x in D.elements:
        g, h = emb.decode(x)
        images[fmap[h]] = emap[g]
    iso = tuple(images)
    if sorted(iso) != list(range(EQ.order)):
        raise GroupError("goursat correspondence failed to be bijective")
    return GoursatData(E=E, k1=k1, F=F, k2=k2, iso=iso,
                       e_quotient=EQ, e_projection=eproj,
                       f_quotient=FQ, f_projection=fproj)


def rebuild_from_goursat(emb: ProductEmbedding, data: GoursatData) -> Subgroup:
    """The subgroup {(g, h) : iso(h k2) = g k1} defined by Goursat data."""
    emap = dict(zip(data.E.elements, data.e_projection))
    fmap = dict(zip(data.F.elements, data.f_projection))
    iso = data.iso
    # g and h ascend, so their encodings g |H| + h ascend too
    out = []
    for g in data.E.elements:
        for h in data.F.elements:
            if iso[fmap[h]] == emap[g]:
                out.append(emb.encode(g, h))
    return Subgroup(emb.ambient, tuple(out), elements_to_mask(out))


def conjugate_pair(D: Subgroup, delta: tuple,
                   g: int) -> Tuple[Subgroup, tuple]:
    """^g (D, delta) = (^g D, ^g delta) with ^g delta(x) = delta(g^-1 x g);
    delta is the tuple of values on the elements of D, ascending."""
    G = D.parent
    mask, images = _permute_raw(G.conjugation_perm(g), D.elements, delta)
    return subgroup_of_mask(G, mask), images
