"""Explicit actions, monomial sets and equivariant matching."""

import pytest

from fibredburnside import monomial
from fibredburnside.groups import (
    GroupError,
    cyclic,
    product_embedding,
)
from fibredburnside.monomial import (
    FiniteAction,
    MonomialSet,
    coset_action,
    decompose_monomial,
    monomial_set_from_pair,
)

from helpers import c_free_part, equivariant_isomorphism
import setlevel


def test_coset_action_regular(q8):
    act = coset_action(q8, [0])
    assert act.size == 8
    act.validate()
    assert len(act.orbits()) == 1
    assert act.stabilizer_elements(0) == [0]


def test_coset_action_points_are_cosets(d8):
    sub = [0, 4]
    act = coset_action(d8, sub)
    assert act.size == 4
    for a in range(8):
        for p in range(4):
            assert 0 <= act.act(a, p) < 4


def test_monomial_set_freeness_enforced(q8, c2):
    emb = product_embedding(q8, c2)
    # stabilizer containing pure fibre elements is rejected
    bad = coset_action(emb.ambient, [emb.encode(0, 0), emb.encode(0, 1)])
    T = MonomialSet(q8, c2, bad)
    with pytest.raises(GroupError, match="fibre group does not act freely"):
        T.validate()


def test_coset_model_needs_a_subgroup_that_meets_the_fibre_trivially(
        q8, c2):
    emb = product_embedding(q8, c2)
    with pytest.raises(GroupError, match="meets the fibre nontrivially"):
        monomial.CosetModel(q8, c2, [emb.encode(0, 0), emb.encode(0, 1)])
    # the twisted diagonal of the central involution z = 2 meets it
    # trivially: 4 cosets of {1, z}, each split into |C| = 2 points, and
    # (z, 1) lies in point 1, since (z, c) with c != 1 lies in point 0
    model = monomial.CosetModel(q8, c2, [emb.encode(0, 0), emb.encode(2, 1)])
    assert model.bases == [0, 1, 4, 5]
    assert model.cell == [0, 2, 1, 3, 4, 6, 5, 7]
    assert model.size == 8


def test_monomial_set_validate_sees_each_fault(c4, c2, s3):
    # the constructor checks only where the action lives
    with pytest.raises(GroupError, match="must live over the"):
        MonomialSet(c4, c2, coset_action(c4, [0]))
    # a non-abelian fibre, acting freely
    emb = product_embedding(c2, s3)
    T = MonomialSet(c2, s3, coset_action(emb.ambient, [0]))
    with pytest.raises(GroupError, match="fibre group must be abelian"):
        T.validate()
    # rows of permutations that do not compose as the group does
    emb = product_embedding(c4, c2)
    table = coset_action(emb.ambient, [0]).table
    table[1], table[2] = table[2], table[1]
    T = MonomialSet(c4, c2, FiniteAction(emb.ambient, table))
    with pytest.raises(GroupError, match="not compatible with products"):
        T.validate()
    MonomialSet(c4, c2, coset_action(emb.ambient, [0])).validate()


def test_monomial_set_from_pair_and_decompose(q8, c4):
    delta = {0: 0, 2: 2}  # x^2 -> c^2 on the center
    T = monomial_set_from_pair(q8, c4, [0, 2], delta.__getitem__)
    assert T.size == q8.order * c4.order // 2
    pieces = decompose_monomial(T)
    assert pieces == [((0, 2), (0, 2))]


def test_decompose_counts_orbits(c4, c2):
    T1 = monomial_set_from_pair(c4, c2, [0], lambda x: 0)
    T2 = monomial_set_from_pair(c4, c2, [0, 2], {0: 0, 2: 1}.__getitem__)
    # block sum of the two actions
    n1, n2 = T1.size, T2.size
    table = []
    for a in range(T1.action.group.order):
        r1 = T1.action.table[a]
        r2 = T2.action.table[a]
        table.append(list(r1) + [n1 + v for v in r2])
    both = MonomialSet(c4, c2, FiniteAction(T1.action.group, table))
    both.validate()
    pieces = decompose_monomial(both)
    assert sorted(pieces) == sorted([((0,), (0,)), ((0, 2), (0, 1))])


def test_identity_fibred_set_over_trivial_group(c1, c4):
    # the fibre itself, with trivial group part: a single free orbit
    T = monomial_set_from_pair(c1, c4, [0], lambda x: 0)
    assert T.size == 4
    assert decompose_monomial(T) == [((0,), (0,))]


def test_equivariant_isomorphism_found(s3):
    a1 = coset_action(s3, [0, 1])
    a2 = coset_action(s3, [0, 2])  # conjugate subgroup: isomorphic action
    mapping = equivariant_isomorphism(a1, a2)
    assert mapping is not None
    for g in range(s3.order):
        for p in range(a1.size):
            assert mapping[a1.act(g, p)] == a2.act(g, mapping[p])


def test_equivariant_isomorphism_rejects(s3):
    a1 = coset_action(s3, [0, 1])       # index 3
    a3 = coset_action(s3, [0, 3, 4])    # index 2
    assert equivariant_isomorphism(a1, a3) is None
    # same sizes, different stabilizers
    c6 = cyclic(6)
    b1 = coset_action(c6, [0, 3])
    b2 = coset_action(c6, [0, 2, 4])
    assert b1.size == 3 and b2.size == 2
    assert equivariant_isomorphism(b1, b2) is None


def test_mackey_glue_with_regular_biset(s3, c2):
    # gluing with the regular (G,G)-biset is the identity on fibred sets
    emb_gg = product_embedding(s3, s3)
    diag = [emb_gg.encode(g, g) for g in range(s3.order)]
    Z = coset_action(emb_gg.ambient, diag)
    emb_gc = product_embedding(s3, c2)
    T = monomial_set_from_pair(s3, c2, [0, 1], {0: 0, 1: 1}.__getitem__)
    emb_out, glued = setlevel.mackey_glue(emb_gg, Z, emb_gc, T.action)
    assert emb_out.ambient is emb_gc.ambient
    result = MonomialSet(s3, c2, glued)
    result.validate()
    assert sorted(decompose_monomial(result)) == sorted(decompose_monomial(T))


def test_tensor_sets_sizes(c2, c4):
    emb1 = product_embedding(c2, c4)
    emb2 = product_embedding(c2, c4)
    T = monomial_set_from_pair(c2, c4, [0], lambda x: 0)
    Y = monomial_set_from_pair(c2, c4, [0, 1], {0: 0, 1: 2}.__getitem__)
    emb_out, action = setlevel.tensor_sets(emb1, T.action, emb2, Y.action)
    # fibre orbits of T x Y: |T||Y| / |C|
    assert action.size == T.size * Y.size // 4


def test_c_free_part(q8, c2):
    emb = product_embedding(q8, c2)
    free = coset_action(emb.ambient, [emb.encode(0, 0)])
    stuck = coset_action(emb.ambient, [emb.encode(0, 0), emb.encode(0, 1)])
    n1, n2 = free.size, stuck.size
    table = []
    for a in range(emb.ambient.order):
        table.append(list(free.table[a])
                     + [n1 + v for v in stuck.table[a]])
    both = FiniteAction(emb.ambient, table)
    kept_action, kept = c_free_part(emb, both)
    assert kept == list(range(n1))
    assert kept_action.size == n1
