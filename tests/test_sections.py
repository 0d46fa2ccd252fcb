"""Sections of subgroups of products (projections, kernel parts, reduced
kernels and full-projection filters) read through ``goursat`` against the
decode loops kept in ``helpers``, exactly: same target group, same sorted
element tuples, same ordered lists."""

import itertools

import pytest

from fibredburnside import goursat, hat, sampling
from fibredburnside.fibred import bouc_factorize, opposite, transitive_basis
from fibredburnside.groups import (
    cyclic, dihedral, product_embedding, quaternion8, small_groups_catalog,
    subgroups)

from helpers import (
    ref_bouc_factorize, ref_full_projection_subgroups, ref_kept_keys,
    ref_kernel_part, ref_projection)

CATALOG = small_groups_catalog(6)
FIBRES = (cyclic(2), cyclic(3), cyclic(4))
# every ordered pair of catalog groups of order <= 6 with each fibre, by
# left group, plus the counterexample's (Q8, D8, C4)
CASES = {G.name: [(G, H, C) for H in CATALOG for C in FIBRES]
         for G in CATALOG}
CASES["Q8xD8"] = [(quaternion8(), dihedral(8), cyclic(4))]


def _pairs(name):
    return list(dict.fromkeys((G, H) for G, H, _ in CASES[name]))


def _index_sets(k):
    return [ids for r in range(1, k + 1)
            for ids in itertools.combinations(range(1, k + 1), r)]


def _assert_sections(emb):
    for D in subgroups(emb.ambient):
        for ids in _index_sets(len(emb.factors)):
            for new, ref in ((goursat.projection(emb, D, ids),
                              ref_projection(emb, D, ids)),
                             (goursat.kernel_part(emb, D, ids),
                              ref_kernel_part(emb, D, ids))):
                assert (new.parent, new.elements) == ref, (emb, D, ids)


@pytest.mark.parametrize("name", CASES)
def test_projection_and_kernel_part_match_reference(name):
    for G, H in _pairs(name):
        _assert_sections(product_embedding(G, H))


def test_three_factor_sections_match_reference():
    _assert_sections(product_embedding(cyclic(2), cyclic(3), cyclic(2)))


def _class_id(X):
    return X.left.table, X.right.table, X.raw


@pytest.mark.parametrize("name", CASES)
def test_bouc_factorize_matches_reference(name):
    for G, H, C in CASES[name]:
        for X in transitive_basis(G, H, C):
            new, ref = bouc_factorize(X), ref_bouc_factorize(X)
            for field in ("left_elementary", "beta1", "beta2",
                          "right_elementary"):
                assert (_class_id(getattr(new, field))
                        == _class_id(getattr(ref, field))), (X, field)
            assert new.left_middle.table == ref.left_middle.table, X
            assert new.right_middle.table == ref.right_middle.table, X


@pytest.mark.parametrize("name", CASES)
def test_full_side_class_keys_match_reference(name):
    # the ideal sweep's factors, built from Goursat data, against the
    # full-side classes filtered by their outer reduced kernels
    for G, H, C in CASES[name]:
        lefts = hat._kept_factors(G, H, C)
        rights = sorted(map(opposite, lefts), key=lambda b: b.raw)
        assert ([a.raw for a in lefts], [b.raw for b in rights]) == \
            ref_kept_keys(G, H, C), (G, H, C)


@pytest.mark.parametrize("name", CASES)
def test_full_projection_pool_matches_reference(name):
    for G, H in _pairs(name):
        assert ([D.elements for D in
                 sampling._full_projection_subgroups(G, H)]
                == [D.elements for D in
                    ref_full_projection_subgroups(G, H)]), (G, H)
