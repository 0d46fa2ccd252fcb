"""Subgroups of a product G x H: the projections p1, p2 and kernel parts
k1, k2, read on one side, 1 (G) or 2 (H), and the Goursat
correspondence between a subgroup of G x H and its five-tuple of
projections, kernels and isomorphism of quotients."""

from __future__ import annotations

from typing import NamedTuple

from .groups import (
    FiniteGroup,
    GroupError,
    ProductEmbedding,
    Subgroup,
    elements_to_mask,
    quotient,
    subgroup_as_group,
)

__all__ = [
    "projection",
    "kernel_part",
    "GoursatData",
    "goursat_decompose",
    "rebuild_from_goursat",
]


def _check_side(emb: ProductEmbedding, D: Subgroup, side: int) -> None:
    if D.parent is not emb.ambient:
        raise GroupError("subgroup does not live in this product")
    if side != 1 and side != 2:
        raise GroupError(f"side {side!r} is neither 1 (left) nor 2 (right)")


def projection(emb: ProductEmbedding, D: Subgroup, side: int) -> Subgroup:
    """p_side(D): the image of D <= G x H in G (side 1) or H (side 2)."""
    _check_side(emb, D, side)
    p = emb.factor_projections[side - 1]
    mask = 0
    for x in D.elements:
        mask |= 1 << p[x]
    return Subgroup(emb.factors[side - 1], mask)


def kernel_part(emb: ProductEmbedding, D: Subgroup, side: int) -> Subgroup:
    """k_side(D): the projection of the part of D that is trivial on the
    other side."""
    _check_side(emb, D, side)
    other = emb.factor_projections[2 - side]
    part = D.mask & ~elements_to_mask(x for x in D.elements if other[x])
    return projection(emb, Subgroup(D.parent, part), side)


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
    return quotient(grp, Subgroup(grp, elements_to_mask(
        pos[x] for x in N.elements)))


def goursat_decompose(emb: ProductEmbedding, D: Subgroup) -> GoursatData:
    """Goursat data of D <= G x H.  The isomorphism F/k2 -> E/k1 sends
    h k2 to g k1 for any (g, h) in D; it is determined by D."""
    E = projection(emb, D, 1)
    k1 = kernel_part(emb, D, 1)
    F = projection(emb, D, 2)
    k2 = kernel_part(emb, D, 2)
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
    mask = 0
    for g in data.E.elements:
        for h in data.F.elements:
            if iso[fmap[h]] == emap[g]:
                mask |= 1 << emb.encode(g, h)
    return Subgroup(emb.ambient, mask)
