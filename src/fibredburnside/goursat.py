"""Subgroups of direct products: coordinate projections and kernels,
and the Goursat correspondence between a subgroup of G x H and its
five-tuple of projections, kernels and isomorphism of quotients."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .groups import (
    FiniteGroup,
    GroupError,
    ProductEmbedding,
    Subgroup,
    elements_to_mask,
    product_embedding,
    quotient,
    subgroup_as_group,
    subgroup_of_mask,
)

__all__ = [
    "projection",
    "kernel_part",
    "GoursatData",
    "goursat_decompose",
    "rebuild_from_goursat",
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
