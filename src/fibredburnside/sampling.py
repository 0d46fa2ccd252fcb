"""Seeded random instances for the property suites: groups from the
catalog, transitive classes over products, and composable tuples."""

from __future__ import annotations

import random

from .groups import (
    FiniteGroup,
    homomorphisms,
    product_embedding,
    small_groups_catalog,
    subgroups,
)
from .fibred import TransitiveFibredBiset, canonicalize

__all__ = [
    "random_group",
    "random_transitive_class",
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
