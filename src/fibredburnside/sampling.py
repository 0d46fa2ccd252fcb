"""Seeded random instances for the property suites: groups from the
catalog, transitive classes over products, and composable tuples."""

from __future__ import annotations

import random
from typing import List, Optional

from .groups import (
    FiniteGroup,
    Subgroup,
    homomorphisms,
    memoized,
    product_embedding,
    small_groups_catalog,
    subgroups,
)
from .fibred import TransitiveFibredBiset, canonicalize
from .goursat import projection

__all__ = [
    "random_group",
    "random_transitive_class",
    "random_full_projection_class",
]


def random_group(rng: random.Random, max_order: int) -> FiniteGroup:
    pool = small_groups_catalog(max_order)
    return pool[rng.randrange(len(pool))]


def random_transitive_class(rng: random.Random, left: FiniteGroup,
                            right: FiniteGroup,
                            fibre: FiniteGroup) -> TransitiveFibredBiset:
    amb = product_embedding(left, right).ambient
    subs = subgroups(amb)
    D = subs[rng.randrange(len(subs))]
    homs = homomorphisms(D, fibre)
    delta = homs[rng.randrange(len(homs))]
    return canonicalize(TransitiveFibredBiset(left, right, fibre, D.mask,
                                              delta))


@memoized
def _full_projection_subgroups(left: FiniteGroup,
                               right: FiniteGroup) -> List[Subgroup]:
    emb = product_embedding(left, right)
    return [D for D in subgroups(emb.ambient)
            if projection(emb, D, (1,)).order == left.order
            and projection(emb, D, (2,)).order == right.order]


def random_full_projection_class(rng: random.Random, left: FiniteGroup,
                                 right: FiniteGroup, fibre: FiniteGroup
                                 ) -> Optional[TransitiveFibredBiset]:
    """A class whose subgroup projects onto both factors, or None when the
    two groups admit no such subgroup."""
    pool = _full_projection_subgroups(left, right)
    if not pool:
        return None
    D = pool[rng.randrange(len(pool))]
    homs = homomorphisms(D, fibre)
    delta = homs[rng.randrange(len(homs))]
    return canonicalize(TransitiveFibredBiset(left, right, fibre, D.mask,
                                              delta))
