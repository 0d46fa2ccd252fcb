"""Group-table core: constructors, subgroups, homomorphisms,
automorphisms, quotients, double cosets and the catalog.

Derived expectations are recomputed here by independent brute force
(subset scans, permutation scans, full map enumeration) rather than
trusting the production enumeration paths.
"""

import gc
import importlib
import itertools
import pkgutil
import re
import tracemalloc

import pytest

import fibredburnside
from fibredburnside import goursat, groups
from fibredburnside.fibred import (
    TransitiveFibredBiset,
    compose,
    element_of,
    subcharacter_classes,
    transitive_basis,
)
from fibredburnside.groups import (
    BoundExceededError,
    GroupError,
    GroupSpecError,
    check_subgroup,
    closure_mask,
    double_coset_representatives,
    group_from_spec,
    homomorphisms,
    isomorphism,
    product_embedding,
    quaternion8,
    quotient,
    small_groups_catalog,
    subgroup_as_group,
    subgroups,
)
from fibredburnside.hat import hat_dimension, verify_hat_vs_quotient

from helpers import (
    _run_fresh,
    live_groups,
    memo_entries,
    package_caches,
    ref_automorphisms,
    ref_closure_mask,
    ref_decode,
    ref_dicyclic,
    ref_dihedral,
    ref_encode,
    ref_generating_sequence,
    ref_homomorphisms,
    ref_isomorphism,
    ref_out_rep_lookup,
    ref_product_table,
    ref_quaternion8,
    ref_subgroups,
)
import setlevel


# -- independent oracles -----------------------------------------------------


def brute_force_subgroup_masks(G):
    """Every subset containing the identity that is closed under products
    and inverses; exhaustive over all 2^(n-1) subsets."""
    n = G.order
    out = []
    for bits in range(2 ** (n - 1)):
        mask = 1 | (bits << 1)
        els = [x for x in range(n) if (mask >> x) & 1]
        if all((mask >> G.inv(a)) & 1 and (mask >> G.mul(a, b)) & 1
               for a in els for b in els):
            out.append(mask)
    return out


def brute_force_homs(G, C):
    """All maps G -> C fixing the identity that respect products."""
    n = G.order
    count = 0
    for images in itertools.product(range(C.order), repeat=n - 1):
        f = (0,) + images
        if all(f[G.mul(a, b)] == C.mul(f[a], f[b])
               for a in range(n) for b in range(n)):
            count += 1
    return count


def brute_force_automorphism_count(G):
    n = G.order
    count = 0
    for perm in itertools.permutations(range(1, n)):
        f = (0,) + perm
        if all(f[G.mul(a, b)] == G.mul(f[a], f[b])
               for a in range(n) for b in range(n)):
            count += 1
    return count


# -- constructors and specs --------------------------------------------------


def test_spec_trivial_group():
    G = group_from_spec("C1")
    assert G.order == 1


def test_spec_quaternion_census(q8):
    assert group_from_spec("Q8") is q8
    orders = [q8.element_order(a) for a in range(8)]
    assert sorted(orders) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert orders.count(2) == 1


def test_spec_c2xc4_census():
    G = group_from_spec("C2xC4")
    assert G.is_abelian
    assert G.order_census() == (1, 2, 2, 2, 4, 4, 4, 4)


def test_q8_relations(q8):
    x, y = 1, 4
    x2 = q8.mul(x, x)
    assert q8.mul(x2, x2) == 0
    assert q8.mul(y, y) == x2
    assert q8.mul(q8.mul(y, x), q8.inv(y)) == q8.inv(x)


def test_d8_relations(d8):
    a, b = 1, 4
    assert d8.mul(b, b) == 0
    assert d8.element_order(a) == 4
    assert d8.mul(d8.mul(b, a), d8.inv(b)) == d8.inv(a)


def test_spec_errors():
    with pytest.raises(GroupSpecError):
        group_from_spec("E8")
    with pytest.raises(GroupSpecError):
        group_from_spec("Q16")
    with pytest.raises(GroupSpecError):
        group_from_spec("S5")
    with pytest.raises(GroupSpecError):
        group_from_spec("C0")
    with pytest.raises(GroupSpecError):
        group_from_spec("C2x")
    with pytest.raises(GroupSpecError):
        group_from_spec("")


def test_symmetric_range_is_stated_in_full():
    for n in (0, -1, 5):
        with pytest.raises(GroupError, match=re.escape(
                "symmetric group supported only for 1 <= n <= 4")):
            groups.symmetric(n)
    for spec in ("S0", "S5"):
        with pytest.raises(GroupSpecError, match=re.escape(
                f"symmetric atom supports 1 <= n <= 4: '{spec}'")):
            group_from_spec(spec)


@pytest.mark.parametrize("spec,order", [
    ("C65", 65), ("C2xC2xC2xC2xC2xC2xC2", 128)])
def test_spec_beyond_the_order_bound_builds_nothing(monkeypatch, spec,
                                                    order):
    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(groups.FiniteGroup, "_setup", refuse)
    with pytest.raises(BoundExceededError, match=f"{order} > 64"):
        group_from_spec(spec)


def test_inverting_extensions_match_reference_builders():
    def built(G):
        return [list(row) for row in G.table], list(G.labels), G.name

    for order in range(2, 31, 2):
        assert built(groups.dihedral(order)) == ref_dihedral(order)
    for order in range(8, 41, 4):
        assert built(groups.dicyclic(order)) == ref_dicyclic(order)
    assert built(quaternion8()) == ref_quaternion8()


def test_every_catalog_name_parses_to_the_catalog_object():
    from fibredburnside.fibred import (
        element_from_json, element_of, element_to_json,
        subcharacter_classes)
    for G in small_groups_catalog(15):
        assert group_from_spec(G.name) is G
    for name in ("A4", "Dic3"):
        G = group_from_spec(name)
        sc = subcharacter_classes(G, groups.cyclic(2))[-1]
        elt = element_of(sc)
        assert element_from_json(element_to_json(elt)) == elt


def test_spec_is_memoized():
    assert group_from_spec("C2xC4") is group_from_spec("C2xC4")


@pytest.mark.parametrize("spec,plain", [
    ("C08", "C8"), ("D08", "D8"), ("S03", "S3"), ("Dic03", "Dic3"),
    ("Q08", "Q8"), ("A04", "A4"), ("Q008xC02", "Q8xC2")])
def test_atoms_read_their_order_not_its_spelling(spec, plain):
    # a leading zero leaves the order as it is, for every kind of atom
    assert group_from_spec(spec) is group_from_spec(plain)


def test_table_validation_rejects_bad_tables():
    with pytest.raises(GroupError):
        groups.FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(GroupError):
        groups.FiniteGroup([[1, 0], [0, 1]])


# the smallest loop (Latin square with identity) that is not associative
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_table_validation_rejects_non_associative_loop():
    with pytest.raises(GroupError, match="not associative"):
        groups.FiniteGroup(LOOP5)


@pytest.mark.parametrize("table", [
    [[0, 1], [1, 0.7]],
    [[0, 1], [1, "0"]],
    [[0, 1.0], [1, 0]],
    [[0, 1], [1, False]],
])
def test_table_entries_must_be_ints(table):
    # each of these once built C2, the entry truncated or parsed by int()
    with pytest.raises(GroupError, match="integers"):
        groups.FiniteGroup(table)
    with pytest.raises(GroupError, match="integers"):
        groups.FiniteGroup.from_json({"table": table})


@pytest.mark.parametrize("order", [1, 3, "2", 2.0, True, None])
def test_from_json_rejects_mismatched_order(order):
    with pytest.raises(GroupError, match="does not match"):
        groups.FiniteGroup.from_json({"order": order,
                                      "table": [[0, 1], [1, 0]]})
    assert groups.FiniteGroup.from_json({"table": [[0, 1], [1, 0]]}).order == 2


def test_from_json_rejects_large_non_associative_table():
    # LOOP5 x C16 has order 80, beyond the subgroup enumeration bound
    m = 16
    table = [[LOOP5[a // m][b // m] * m + (a + b) % m for b in range(80)]
             for a in range(80)]
    with pytest.raises(GroupError, match="not associative"):
        groups.FiniteGroup.from_json({"order": 80, "table": table})


@pytest.mark.parametrize("data, message", [
    ({}, "group JSON 'table' must be a list of lists"),
    ([], "group JSON must be an object"),
    ("C2", "group JSON must be an object"),
    ({"table": 5}, "group JSON 'table' must be a list of lists"),
    ({"table": [5]}, "group JSON 'table' must be a list of lists"),
    ({"table": [[0, 1], [1, 0]], "labels": 5},
     "group JSON 'labels' must be a list"),
    ({"table": [[0]], "labels": "a"}, "group JSON 'labels' must be a list"),
    ({"table": [[0]], "name": 7}, "group JSON 'name' must be a string"),
])
def test_from_json_names_the_malformed_field(data, message):
    # each of these escaped as KeyError or TypeError, or was accepted with
    # a string's characters as labels or an int as name
    with pytest.raises(GroupError) as info:
        groups.FiniteGroup.from_json(data)
    assert str(info.value) == message


def test_from_json_accepts_null_labels_and_name():
    G = groups.FiniteGroup.from_json({"table": [[0]], "labels": None,
                                      "name": None})
    assert (G.labels, G.name) == (None, "group1")


# -- direct products ---------------------------------------------------------


def test_product_takes_exactly_two_factors(c2):
    # a product of more groups is nested, as ``group_from_spec`` folds it
    for factors in ((), (c2,), (c2, c2, c2)):
        with pytest.raises(TypeError):
            product_embedding(*factors)


def test_product_with_trivial_is_identity(c1, q8):
    emb = product_embedding(c1, q8)
    assert emb.ambient is q8
    assert emb.factor_projections[1] == tuple(range(8))


def test_product_klein(c2):
    emb = product_embedding(c2, c2)
    G = emb.ambient
    assert G.order == 4
    assert all(G.element_order(a) == 2 for a in range(1, 4))


def test_product_order_and_projections(q8, d8):
    emb = product_embedding(q8, d8)
    assert emb.ambient.order == 64
    p1, p2 = emb.factor_projections
    for _ in range(10):
        a, b = 13, 47
        c = emb.ambient.mul(a, b)
        assert p1[c] == q8.mul(p1[a], p1[b])
        assert p2[c] == d8.mul(p2[a], p2[b])


def test_product_cache_keys_hold_the_factor_groups(c2, c3):
    emb = product_embedding(c2, c3)
    assert product_embedding(c2, c3) is emb
    # two groups on one table are two keys, each embedding its own factor
    a = groups.FiniteGroup(c3.table)
    b = groups.FiniteGroup(c3.table)
    emb_a = product_embedding(c2, a)
    emb_b = product_embedding(c2, b)
    assert emb_a is not emb_b and emb_a.ambient is not emb_b.ambient
    assert emb_a.factors[1] is a and emb_b.factors[1] is b


def test_product_ordering_is_lexicographic(c2, c4):
    emb = product_embedding(c2, c4)
    for i in range(8):
        assert emb.decode(i) == (i // 4, i % 4)


def _reference_products():
    """Every ordered pair of catalog groups of order <= 8, C1 with itself
    and products of order above 64, which ``product_embedding`` supports
    although the orbit oracle no longer builds them: (C3 x Q8) x C4 of
    order 96, and (D8 x Q8) x C4 and (Q8 x D8) x C4 of order 256, the
    coset spaces of the counterexample's check."""
    cat = small_groups_catalog(8)
    c1, c3, c4 = (groups.cyclic(n) for n in (1, 3, 4))
    q8 = quaternion8()
    d8 = groups.dihedral(8)
    return ([(g, h) for g in cat for h in cat] + [(c1, c1)]
            + [(product_embedding(c3, q8).ambient, c4),
               (product_embedding(d8, q8).ambient, c4),
               (product_embedding(q8, d8).ambient, c4)])


def test_product_tables_match_cell_by_cell_reference():
    for factors in _reference_products():
        emb = product_embedding(*factors)
        assert emb.ambient.table == ref_product_table(factors), factors


# specs of three or more atoms, trivial atoms in every position among them
SPECS_OF_THREE_OR_MORE_ATOMS = (
    "C2xC2xC2", "C2xC3xC2", "S3xC2xC4", "Q8xC2xC3", "C2xC3xC2xC2",
    "C3xS3xC1", "C2xC1xC3", "C1xQ8xC1", "C1xC1xC1", "C2xC1xC2", "C1xC2xC3",
    "C1xC1xC2")


def _fold(spec):
    """The first atom of ``spec`` and the embedding of its product with
    the rest, which ``group_from_spec`` folds from the right; None for
    one atom."""
    first, _, rest = spec.partition("x")
    if not rest:
        return None
    return rest, product_embedding(group_from_spec(first),
                                   group_from_spec(rest))


def _spec_decode(spec, x):
    """The atom coordinates of element x of ``group_from_spec(spec)``,
    read through the nested pairs of its fold."""
    fold = _fold(spec)
    if fold is None:
        return (x,)
    rest, emb = fold
    g, r = emb.decode(x)
    return (g, *_spec_decode(rest, r))


def _spec_encode(spec, coords):
    fold = _fold(spec)
    if fold is None:
        return coords[0]
    rest, emb = fold
    return emb.encode(coords[0], _spec_encode(rest, coords[1:]))


@pytest.mark.parametrize("spec", SPECS_OF_THREE_OR_MORE_ATOMS)
def test_spec_products_match_the_k_factor_references(spec):
    # the right fold through pairs gives the k-factor mixed-radix table
    # and numbering, with the last atom varying fastest
    atoms = [group_from_spec(t) for t in spec.split("x")]
    orders = [A.order for A in atoms]
    G = group_from_spec(spec)
    assert G.table == ref_product_table(atoms)
    for x in range(G.order):
        coords = _spec_decode(spec, x)
        assert coords == ref_decode(orders, x)
        assert _spec_encode(spec, coords) == ref_encode(orders, *coords) == x


def test_a_trivial_atom_leaves_the_product():
    assert group_from_spec("C2xC1xC2") is group_from_spec("C2xC2")
    assert group_from_spec("C1xC2xC3") is group_from_spec("C2xC3")
    assert group_from_spec("C1xC1xC2") is groups.cyclic(2)


def test_spec_labels_nest_from_the_right():
    G = group_from_spec("C2xC2xC2")
    assert G.name == "C2xC2xC2"
    assert (G.labels[0], G.labels[3], G.labels[7]) == \
        ("(1,(1,1))", "(1,(c,c))", "(c,(c,c))")


def test_derived_tables_are_never_validated(monkeypatch, q8, d8, c4):
    # product, quotient and subgroup tables come from validated groups and
    # are trusted at every order; only the public constructor validates.
    # The factors are fresh groups, so no cached product answers.
    calls = []
    monkeypatch.setattr(groups.FiniteGroup, "_validate",
                        lambda self: calls.append(self))
    a, b, c = (groups.FiniteGroup(H.table) for H in (q8, d8, c4))
    assert calls == [a, b, c]
    del calls[:]
    small = product_embedding(a, b).ambient
    large = product_embedding(small, c).ambient
    assert (small.order, large.order) == (64, 256)
    Z = groups.center(small)
    subgroup_as_group(Z)
    quotient(small, Z)
    assert calls == []
    assert large.table == ref_product_table((small, c))


def test_internal_tables_are_tuples_of_ints(q8, d8):
    # product, subgroup and quotient tables skip the public constructor's
    # entry check, so they must be built as tuples of ints
    built = [product_embedding(q8, d8).ambient,
             product_embedding(
                 d8, product_embedding(q8, groups.cyclic(3)).ambient).ambient,
             subgroup_as_group(q8.subgroup([0, 1, 2, 3]))[0],
             quotient(q8, groups.center(q8))[0]]
    for H in built:
        assert type(H.table) is tuple and type(H.labels) is tuple
        assert all(type(row) is tuple and all(type(x) is int for x in row)
                   for row in H.table), H.name
        assert groups.FiniteGroup(H.table, labels=H.labels).table == H.table


def test_encode_decode_match_generic_reference():
    for factors in _reference_products():
        emb = product_embedding(*factors)
        orders = [f.order for f in factors]
        for x in range(emb.ambient.order):
            coords = emb.decode(x)
            assert coords == ref_decode(orders, x)
            assert emb.encode(*coords) == x
        for coords in itertools.product(*(range(o) for o in orders)):
            assert emb.encode(*coords) == ref_encode(orders, *coords)


def test_closure_mask_matches_pairwise_reference(monkeypatch):
    # every subgroup S as the base, under two seeds that generate it (its
    # greedy generating sequence and all its elements) plus each g
    for G in small_groups_catalog(15):
        for S in subgroups(G):
            for seed in (groups._generating_sequence(G, S.elements),
                         list(S.elements)):
                for g in range(G.order):
                    ref = ref_closure_mask(G, seed + [g])
                    assert closure_mask(G, seed + [g]) == ref, \
                        (G.name, S.elements, g)
                    assert closure_mask(G, seed + [g], base=S.elements) \
                        == ref, (G.name, S.elements, seed, g)
    # a one-element seed g with every subgroup of <g> as the base: here
    # the cosets of the base are the only route to some elements
    for G in small_groups_catalog(15):
        for g in range(G.order):
            ref = ref_closure_mask(G, [g])
            for S in subgroups(G):
                if S.mask & ~ref == 0:
                    assert closure_mask(G, [g], base=S.elements) == ref, \
                        (G.name, g, S.elements)
    # and every (seed, base) that the enumeration itself closes
    calls = []

    def recording(G, seed, base=(0,)):
        calls.append((G, list(seed), base))
        return closure_mask(G, seed, base)

    monkeypatch.setattr(groups, "closure_mask", recording)
    for G in small_groups_catalog(15):
        subgroups(groups.FiniteGroup(G.table))
    assert calls
    for G, seed, base in calls:
        ref = ref_closure_mask(G, seed)
        assert ref & groups.elements_to_mask(base) == \
            groups.elements_to_mask(base)
        assert closure_mask(G, seed, base) == ref, (seed, base)


def _enumeration_range():
    """Every catalog group of order <= 15 and all 196 ordered products of
    catalog groups of order <= 8."""
    cat = small_groups_catalog(8)
    return small_groups_catalog(15) + [product_embedding(g, h).ambient
                                       for g in cat for h in cat]


def test_subgroups_match_reference_enumeration():
    for G in _enumeration_range():
        assert [S.elements for S in subgroups(G)] == ref_subgroups(G), G.name


def test_subgroup_search_closes_each_subgroup_about_once(monkeypatch):
    # each subgroup is closed from its canonical parent, and a candidate
    # whose cosets already show it is not a child is never closed; the
    # layered search made 8.2 closures per subgroup on these products
    cat = small_groups_catalog(8)
    products = [product_embedding(g, h).ambient for g in cat for h in cat]
    calls = []

    def counting(G, seed, base=(0,)):
        calls.append(G)
        return closure_mask(G, seed, base)

    monkeypatch.setattr(groups, "closure_mask", counting)
    found = sum(len(groups._subgroups.__wrapped__(G)) for G in products)
    assert found == 15587
    assert len(calls) <= 1.5 * found, len(calls) / found


def test_generating_sequences_match_reference():
    for G in _enumeration_range():
        assert G.generators() == tuple(
            ref_generating_sequence(G, range(G.order))), G.name
        for S in subgroups(G):
            assert groups._generating_sequence(G, S.elements) == \
                ref_generating_sequence(G, S.elements), (G.name, S.elements)


# -- subgroups ---------------------------------------------------------------


@pytest.mark.parametrize("spec,expected", [("C4", 3), ("Q8", 6), ("D8", 10)])
def test_subgroup_counts_against_subset_scan(spec, expected):
    G = group_from_spec(spec)
    oracle = brute_force_subgroup_masks(G)
    assert len(oracle) == expected
    subs = subgroups(G)
    assert len(subs) == expected
    assert sorted(s.mask for s in subs) == sorted(oracle)


def test_subgroups_closed_under_conjugation(q8, d8, s3):
    for G in (q8, d8, s3):
        masks = {s.mask for s in subgroups(G)}
        for s in subgroups(G):
            for g in range(G.order):
                assert groups.conjugate_mask(G, s.mask, g) in masks


def test_lagrange(q8, d8, s3):
    for G in (q8, d8, s3):
        for s in subgroups(G):
            assert G.order % s.order == 0


def test_subgroup_bound():
    big = product_embedding(quaternion8(), product_embedding(
        quaternion8(), groups.cyclic(2)).ambient).ambient
    assert big.order == 128
    with pytest.raises(BoundExceededError):
        subgroups(big)


def test_subgroup_validation(q8):
    with pytest.raises(GroupError):
        q8.subgroup([0, 1])  # x alone is not closed
    s = q8.subgroup([0, 1, 2, 3])
    assert s.order == 4


# check_subgroup's five checks, in the order it makes them; the same
# inputs go through element JSON in test_cli.py
SUBGROUP_FAULTS = [
    ("C3", [0, 0], "subgroup elements must be sorted and distinct"),
    ("C3", [1, 2], "subgroup must contain the identity"),
    ("C3", [0, 5], "subgroup element out of range"),
    ("C3", [0, 1], "subgroup not closed under inverses"),
    ("C2xC2", [0, 1, 2], "subgroup not closed under products"),
]


@pytest.mark.parametrize("spec, elements, message", SUBGROUP_FAULTS,
                         ids=[m for _, _, m in SUBGROUP_FAULTS])
def test_check_subgroup_names_each_fault(spec, elements, message):
    with pytest.raises(GroupError, match=f"^{message}$"):
        check_subgroup(group_from_spec(spec), elements)


def test_check_subgroup_reports_the_first_fault():
    c3 = groups.cyclic(3)
    for elements, message in [
            ([2, 1], "sorted and distinct"),  # and no identity
            ([5], "contain the identity"),  # and out of range
            ([0, 1, 5], "element out of range"),  # and not closed
            ([0, 1, 2], None)]:
        if message is None:
            assert check_subgroup(c3, elements) == c3.full_subgroup()
        else:
            with pytest.raises(GroupError, match=message):
                check_subgroup(c3, elements)


def _built_subgroups(G, emb):
    """What every subgroup builder returns on G, and on the subgroups of
    the two-factor product ``emb``: its projections, kernels, Goursat
    rebuild, and the D and ker delta of a class on it."""
    out = list(subgroups(G))
    out += [groups.center(G), groups.frattini(G), G.full_subgroup(),
            G.trivial_subgroup()]
    out += [G.generated_subgroup([g]) for g in range(G.order)]
    out += [G.generated_subgroup(S.elements) for S in subgroups(G)]
    left, right = emb.factors
    c2 = groups.cyclic(2)
    for D in subgroups(emb.ambient):
        for side in (1, 2):
            out += [goursat.projection(emb, D, side),
                    goursat.kernel_part(emb, D, side)]
        out.append(goursat.rebuild_from_goursat(
            emb, goursat.goursat_decompose(emb, D)))
        delta = homomorphisms(D, c2)[-1]
        out += TransitiveFibredBiset(left, right, c2, D.mask,
                                     delta).subgroup_and_kernel()
    return out


def test_every_subgroup_builder_returns_a_checked_subgroup():
    # a subgroup is its mask alone: whatever a builder returns must be the
    # subgroup that check_subgroup builds from its elements
    assert groups.Subgroup._fields == ("parent", "mask")
    cases = [(G, product_embedding(G, G)) for G in small_groups_catalog(8)]
    emb = product_embedding(quaternion8(), groups.dihedral(8))
    cases.append((emb.ambient, emb))
    checked = set()
    for G, emb in cases:
        for S in _built_subgroups(G, emb):
            assert type(S) is groups.Subgroup
            if S not in checked:
                assert tuple(S) == tuple(check_subgroup(S.parent,
                                                        S.elements))
                checked.add(S)
    # every subgroup of each product is among them, as the D of a class
    assert len(checked) > sum(len(subgroups(emb.ambient)) for _, emb in cases)


def test_subgroup_parents_compare_by_identity(d8):
    # equal elements in two structurally equal groups are two subgroups
    a, b = groups.FiniteGroup(d8.table), groups.FiniteGroup(d8.table)
    sa, sb = a.subgroup([0, 2, 4, 6]), b.subgroup([0, 2, 4, 6])
    assert sa.elements == sb.elements and sa.mask == sb.mask
    assert sa != sb and {sa: 1}.get(sb) is None
    assert sa == a.subgroup([6, 4, 2, 0]) and hash(sa) == hash(
        a.subgroup([6, 4, 2, 0]))


# -- center and frattini -----------------------------------------------------


def test_center_frattini_c2(c2):
    assert groups.center(c2).order == 2
    assert groups.frattini(c2).order == 1


def test_center_frattini_q8(q8):
    z = groups.center(q8)
    f = groups.frattini(q8)
    assert z.elements == (0, 2) and f.elements == (0, 2)


def test_frattini_c4(c4):
    assert groups.frattini(c4).elements == (0, 2)


def test_frattini_is_intersection_of_maximals(d8):
    subs = [s for s in subgroups(d8) if s.order < d8.order]
    maximal = [s for s in subs
               if not any(s is not t and s.mask & ~t.mask == 0 for t in subs)]
    mask = (1 << d8.order) - 1
    for m in maximal:
        mask &= m.mask
    assert groups.frattini(d8).mask == mask


def test_commutation_and_orders_read_off_the_table_match_definitions():
    # is_abelian and center test commutation with the generators only, and
    # element orders step along the element's own row: each is held to
    # its definition over all pairs or all powers through mul, on the
    # search range and the 196 products of two catalog groups of order
    # <= 8
    cat = small_groups_catalog(8)
    pool = _hom_search_range() + [product_embedding(g, h).ambient
                                  for g in cat for h in cat]
    for G in pool:
        els = range(G.order)
        central = tuple(a for a in els
                        if all(G.mul(a, b) == G.mul(b, a) for b in els))
        assert groups.center(G).elements == central, G.name
        assert G.is_abelian == (len(central) == G.order), G.name
        for a in els:
            k, y = 1, a
            while y:
                k, y = k + 1, G.mul(y, a)
            assert G.element_order(a) == k, (G.name, a)


# -- homomorphisms -----------------------------------------------------------


def test_hom_from_trivial(c1, c4):
    assert len(homomorphisms(c1, c4)) == 1


def test_homs_q8_to_c2(q8, c2):
    homs = homomorphisms(q8, c2)
    assert len(homs) == brute_force_homs(q8, c2) == 4
    x2 = q8.mul(1, 1)
    assert all(h[x2] == 0 for h in homs)


def test_homs_s3_to_c3(s3, c3):
    assert len(homomorphisms(s3, c3)) == brute_force_homs(s3, c3) == 1


def test_homs_contain_trivial_and_are_aut_stable(d8, c4):
    homs = homomorphisms(d8, c4)
    assert (0,) * d8.order in homs
    images_set = set(homs)
    for alpha in groups.automorphisms(c4).all:
        for h in homs:
            post = tuple(alpha[v] for v in h)
            assert post in images_set


def test_hom_on_subgroup(q8, c2):
    d = q8.subgroup([0, 1, 2, 3])
    homs = homomorphisms(d, c2)
    assert len(homs) == 2
    for h in homs:
        hmap = dict(zip(d.elements, h))
        for a in d.elements:
            for b in d.elements:
                assert hmap[q8.mul(a, b)] == c2.mul(hmap[a], hmap[b])


def test_homs_of_a_group_and_its_full_subgroup_agree(c2):
    from fibredburnside.fibred import subcharacter_classes
    # a fresh group: nothing about it is cached before this test runs
    G = groups.FiniteGroup(groups.symmetric(3).table)
    subcharacter_classes(G, c2)  # enumerates homs of the full subgroup
    homs = homomorphisms(G, c2)
    assert all(groups.check_homomorphism(G, c2, h) == h for h in homs)
    assert homomorphisms(G.full_subgroup(), c2) == homs


def test_a_group_is_read_as_its_full_subgroup(c4):
    # both forms of one domain fill one memo entry with one list, and
    # check_homomorphism gives the same result or error for both; a fresh
    # group has no entry yet
    G = groups.FiniteGroup(groups.dihedral(8).table)
    before = memo_entries(groups._homomorphisms)
    homs = homomorphisms(G, c4)
    assert homomorphisms(G.full_subgroup(), c4) == homs
    assert memo_entries(groups._homomorphisms) == before + 1
    errors = set()
    for images in [*homs, (0,) * 7, (0, 5) + (0,) * 6, (0, 1) * 4]:
        outcomes = []
        for domain in (G, G.full_subgroup()):
            try:
                outcomes.append(groups.check_homomorphism(domain, c4,
                                                          images))
            except GroupError as e:
                outcomes.append(str(e))
                errors.add(str(e))
        assert outcomes[0] == outcomes[1], images
    assert errors == {"image list does not match domain size",
                      "image out of range", "map is not a homomorphism"}


def test_every_bound_error_names_the_order(c2):
    big = product_embedding(groups.cyclic(9), groups.cyclic(9)).ambient
    for enumerate_, what in ((subgroups, "subgroup"),
                             (lambda G: homomorphisms(G, c2), "homomorphism"),
                             (groups.automorphisms, "automorphism")):
        with pytest.raises(BoundExceededError, match=f"^{what} enumeration "
                           "bound exceeded: 81 > 64$"):
            enumerate_(big)
    with pytest.raises(BoundExceededError,
                       match="^group order bound exceeded: 65 > 64$"):
        group_from_spec("C65")


def test_homomorphisms_are_plain_image_tuples(q8, d8, c4):
    # a homomorphism is its image tuple, whichever function returns it
    emb = product_embedding(q8, d8)
    D = emb.ambient.generated_subgroup([emb.encode(1, 1), emb.encode(4, 4)])
    auts = groups.automorphisms(d8)
    data = goursat.goursat_decompose(emb, D)
    delta = homomorphisms(D, c4)[1]
    maps = [*homomorphisms(D, c4), *homomorphisms(d8, c4), *auts.all,
            *auts.inner, *auts.out_representatives,
            *auts.out_rep_of.values(), isomorphism(q8, q8),
            quotient(d8, d8.subgroup([0, 2]))[1],
            quotient(d8, d8.trivial_subgroup())[1],
            quotient(d8, d8.full_subgroup())[1],
            subgroup_as_group(D)[1], subgroup_as_group(d8.full_subgroup())[1],
            *emb.factor_projections, data.iso, data.e_projection,
            data.f_projection, setlevel.conjugate_pair(D, delta, 5)[1]]
    assert all(type(m) is tuple for m in maps)
    assert all(type(field) is tuple for field in
               (auts.all, auts.inner, auts.out_representatives,
                emb.factor_projections))


@pytest.mark.parametrize("domain, images, message", [
    ("C4", (0, 1, 0), "image list does not match domain size"),
    ("C4", (0, 1, 0, 1, 0), "image list does not match domain size"),
    ("C4", (0, -1, 0, 1), "image out of range"),
    ("C4", (0, 1, 0, 2), "image out of range"),
    ("C4", (0, 1, 1, 1), "map is not a homomorphism"),
    ("<x>", (0, 1, 0, 5), "image out of range"),
    ("<x>", (0, 0, 1, 1), "map is not a homomorphism"),
])
def test_check_homomorphism_messages(q8, c2, c4, domain, images, message):
    # <x> is the subgroup {1, x, x^2, x^3} of Q8; the images follow its
    # elements in ascending order
    D = c4 if domain == "C4" else q8.subgroup([0, 1, 2, 3])
    with pytest.raises(GroupError, match=f"^{re.escape(message)}$"):
        groups.check_homomorphism(D, c2, images)


def test_check_homomorphism_returns_the_tuple(q8, c2, c4):
    assert groups.check_homomorphism(c4, c2, [0, 1, 0, 1]) == (0, 1, 0, 1)
    x = q8.subgroup([0, 1, 2, 3])
    assert groups.check_homomorphism(x, c2, iter([0, 1, 0, 1])) == \
        (0, 1, 0, 1)


# -- automorphisms -----------------------------------------------------------


def test_out_c2_trivial(c2):
    assert groups.automorphisms(c2).out_order == 1


def test_aut_q8(q8):
    data = groups.automorphisms(q8)
    assert len(data.all) == brute_force_automorphism_count(q8) == 24
    assert len(data.inner) == 4
    assert data.out_order == 6


def test_out_c4(c4):
    data = groups.automorphisms(c4)
    assert len(data.all) == 2
    assert data.out_order == 2


@pytest.mark.parametrize("spec, aut_order, out_order",
                         [("D8", 2048, 128), ("Q8", 18432, 1152)])
def test_automorphisms_of_a_square(spec, aut_order, out_order):
    # an automorphism of H x H keeps or swaps the two factors, each up to
    # a central map H -> Z(H): 2 |Aut(H)|^2 |Hom(H, Z(H))|^2 of them for
    # D8 and Q8, counted here from the library's own enumerations
    H = group_from_spec(spec)
    Z = subgroup_as_group(groups.center(H))[0]
    count = (2 * len(groups.automorphisms(H).all) ** 2
             * len(homomorphisms(H, Z)) ** 2)
    auts = groups.automorphisms(product_embedding(H, H).ambient)
    assert len(auts.all) == count == aut_order
    assert auts.out_order == out_order


def test_out_representatives_partition(d8):
    data = groups.automorphisms(d8)
    seen = set()
    for rep in data.out_representatives:
        coset = {tuple(rep[i[g]] for g in range(d8.order))
                 for i in data.inner}
        assert rep == min(coset)
        assert not coset & seen
        seen |= coset
    assert len(seen) == len(data.all)


# -- the one generator-image search ------------------------------------------


def _hom_search_range():
    """Every catalog group of order <= 15 and every ordered product of two
    non-trivial catalog groups with order <= 16."""
    cat = small_groups_catalog(15)
    return cat + [product_embedding(g, h).ambient for g in cat for h in cat
                  if 1 < g.order and 1 < h.order and g.order * h.order <= 16]


def test_homomorphisms_match_reference_search():
    targets = [group_from_spec(s) for s in ("C2", "C3", "C4", "C2xC2", "C6")]
    for G in _hom_search_range():
        for S in subgroups(G):
            for C in targets:
                assert (homomorphisms(S, C)
                        == ref_homomorphisms(G, S.elements, C)), \
                    (G.name, S.elements, C.name)


def test_automorphisms_and_isomorphism_match_reference_search():
    # every subgroup of the range as a group, one per multiplication
    # table: the search reads nothing else of a group
    pool = {}
    for G in _hom_search_range():
        for S in subgroups(G):
            X = subgroup_as_group(S)[0]
            pool.setdefault(X.table, X)
    by_order = {}
    for X in pool.values():
        by_order.setdefault(X.order, []).append(X)
    for X in pool.values():
        assert (list(groups.automorphisms(X).all)
                == ref_automorphisms(X)), X.name
        for Y in by_order[X.order]:
            assert isomorphism(X, Y) == ref_isomorphism(X, Y), \
                (X.name, Y.name)


def test_out_rep_of_matches_reference_lookup():
    # the coset map kept by the automorphism census against the one built
    # again from its representatives and inner automorphisms
    for G in small_groups_catalog():
        auts = groups.automorphisms(G)
        ref = ref_out_rep_lookup(G)
        assert set(auts.out_rep_of) == set(auts.all), G.name
        assert auts.out_rep_of.keys() == ref.keys(), G.name
        assert all(auts.out_rep_of[k] is ref[k] for k in ref), G.name


# -- quotients ---------------------------------------------------------------


def test_quotient_by_trivial_is_identity(q8):
    Q, proj = quotient(q8, q8.trivial_subgroup())
    assert Q is q8
    assert proj == tuple(range(8))


def test_quotient_by_full_is_trivial(q8, c1):
    Q, proj = quotient(q8, q8.full_subgroup())
    assert Q is c1
    assert set(proj) == {0}


def test_quotient_counterexample_subgroup_is_c4(q8, d8, c4):
    emb = product_embedding(q8, d8)
    D = emb.ambient.generated_subgroup([emb.encode(1, 1), emb.encode(4, 4)])
    D_grp, incl = subgroup_as_group(D)
    # D1 = <(x^-1, a)> inside D
    gen_parent = emb.encode(q8.inv(1), 1)
    gen_local = D.elements.index(gen_parent)
    D1 = D_grp.generated_subgroup([gen_local])
    assert D1.order == 4
    assert D1.is_normal()
    Q, proj = quotient(D_grp, D1)
    assert Q.order == 4
    assert isomorphism(Q, c4) is not None


def test_quotient_projection_kernel(d8):
    N = d8.subgroup([0, 2])
    Q, proj = quotient(d8, N)
    assert set(proj) == set(range(Q.order))
    assert tuple(g for g in range(d8.order) if proj[g] == 0) == N.elements
    with pytest.raises(GroupError):
        quotient(d8, d8.subgroup([0, 4]))  # <b> is not normal


# -- double cosets -----------------------------------------------------------


def test_double_cosets_full_and_trivial(q8):
    full = q8.full_subgroup()
    triv = q8.trivial_subgroup()
    assert double_coset_representatives(q8, full, full) == [0]
    assert double_coset_representatives(q8, triv, triv) == list(range(8))


def test_double_cosets_d8_rotation_subgroup(d8):
    A = d8.generated_subgroup([1])
    reps = double_coset_representatives(d8, A, A)
    assert len(reps) == 2
    # independent partition check
    cosets = []
    for g in reps:
        cosets.append({d8.mul(d8.mul(a, g), b)
                       for a in A.elements for b in A.elements})
    assert set().union(*cosets) == set(range(8))
    assert not (cosets[0] & cosets[1])


def test_double_cosets_partition_randomized(d8, s3, rng):
    for G in (d8, s3):
        subs = subgroups(G)
        for _ in range(10):
            A = subs[rng.randrange(len(subs))]
            B = subs[rng.randrange(len(subs))]
            reps = double_coset_representatives(G, A, B)
            seen = set()
            for g in reps:
                coset = {G.mul(G.mul(a, g), b)
                         for a in A.elements for b in B.elements}
                assert g == min(coset)
                assert not coset & seen
                seen |= coset
            assert seen == set(range(G.order))


# -- isomorphism -------------------------------------------------------------


def test_isomorphism_q8_d8_absent(q8, d8):
    assert q8.order_census() != d8.order_census()
    assert isomorphism(q8, d8) is None


def test_isomorphism_identity(q8):
    phi = isomorphism(q8, q8)
    assert phi is not None and sorted(phi) == list(range(q8.order))


def test_isomorphism_klein_inside_d8(klein, d8):
    sub = d8.subgroup([0, 2, 4, 6])
    sub_grp, _ = subgroup_as_group(sub)
    assert isomorphism(klein, sub_grp) is not None


# -- catalog -----------------------------------------------------------------


def test_catalog_order_1():
    cat = small_groups_catalog(1)
    assert len(cat) == 1 and cat[0].order == 1


def test_catalog_counts():
    cat7 = small_groups_catalog(7)
    assert len(cat7) == 9
    cat8 = small_groups_catalog(8)
    assert len(cat8) == 14
    assert sum(1 for g in cat8 if g.order == 8) == 5
    by_order = {}
    for g in small_groups_catalog(15):
        by_order[g.order] = by_order.get(g.order, 0) + 1
    assert [by_order[k] for k in range(1, 16)] == [
        1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1]


def test_catalog_pairwise_non_isomorphic():
    cat = small_groups_catalog(12)
    for i, g in enumerate(cat):
        for h in cat[:i]:
            if g.order == h.order:
                assert isomorphism(g, h) is None


def test_catalog_bound():
    with pytest.raises(BoundExceededError):
        small_groups_catalog(16)


# -- serialization -----------------------------------------------------------


def test_group_json_round_trip(q8):
    data = q8.to_json()
    assert data["order"] == 8
    back = groups.FiniteGroup.from_json(data)
    assert back.table == q8.table
    assert back.labels == q8.labels


# -- the group memo -------------------------------------------------------


def test_only_int_keyed_builders_use_functools_cache():
    # every cache keyed by a group goes through groups.memoized, so its
    # entries die with their group; mask_to_elements is keyed by an int
    for module in pkgutil.iter_modules(fibredburnside.__path__):
        if module.name != "__main__":
            importlib.import_module(f"fibredburnside.{module.name}")
    assert set(package_caches()) == {
        "fibredburnside.groups._cyclic",
        "fibredburnside.groups._inverting_extension",
        "fibredburnside.groups._symmetric",
        "fibredburnside.groups.alternating4",
        "fibredburnside.groups._full_catalog",
        "fibredburnside.groups.mask_to_elements",
    }


def _dropping_paths(c2, c4):
    """Calls that fill the memos of a group G, by name: the quotient
    dimension with fibre C4, the ring basis, the compositions of a class
    over C2 x G with one over G x C2 both ways, with fibre C4, and the
    prime-fibre cross-check."""

    def compose_through(G):
        # the profiles of both classes and the double cosets in G live
        # in G's memo; those in C2 are the same for every copy of G
        X = element_of(transitive_basis(c2, G, c4)[-1])
        Y = element_of(transitive_basis(G, c2, c4)[-1])
        compose(X, Y)
        compose(Y, X)

    return {
        "hat_dimension": lambda G: hat_dimension(G, c4),
        "subcharacter_classes": lambda G: subcharacter_classes(G, c2),
        "compose": compose_through,
        "verify_hat_vs_quotient": lambda G: verify_hat_vs_quotient(G, c2),
    }


def test_dropped_groups_are_collected(q8, d8, c2, c4):
    # every other group keyed with G is built by a builder cached for the
    # process, and so counts as older than G, or is derived from G and as
    # young as G: every entry about G lives in its own memo, or in that of
    # a group that goes with it, whether or not the catalog is built yet
    for base in (d8, q8):
        for path, run in _dropping_paths(c2, c4).items():
            name = f"dropped {base.name} {path}"
            for _ in range(20):
                run(groups.FiniteGroup(base.table, name=name))
            alive = sum(G.name == name for G in live_groups())
            assert alive == 0, (name, alive)


_EARLY_COPIES = """
from fibredburnside import groups, hat
from helpers import live_groups

def alive_after(name, run):
    run(groups.FiniteGroup(groups.dihedral(8).table, name=name))
    return sum(G.name == name for G in live_groups())

# C16 is first built after the first copy, and the catalog after the other
print(alive_after("D8 before C16",
                  lambda G: groups.homomorphisms(G, groups.cyclic(16))),
      alive_after("D8 before the catalog",
                  lambda G: hat.hat_dimension(G, groups.cyclic(4))))
"""


def test_groups_built_before_cached_ones_are_collected():
    # a process-cached group built after G, such as the catalog's groups or
    # C16 here, holds no entry about G
    proc = _run_fresh(_EARLY_COPIES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


_OLDER_MET_BY_YOUNGER = """
from fibredburnside import groups, hat
from fibredburnside.fibred import compose, element_of, transitive_basis
from helpers import live_groups

def alive(name):
    return sum(G.name == name for G in live_groups())

c2, c4 = groups.cyclic(2), groups.cyclic(4)
older = groups.FiniteGroup(groups.dihedral(8).table, name="older D8")
younger = groups.FiniteGroup(groups.quaternion8().table, name="younger Q8")
X = element_of(transitive_basis(older, younger, c2)[-1])
Y = element_of(transitive_basis(younger, older, c2)[-1])
compose(X, Y)
compose(Y, X)
hat.hat_dimension(older, c4)
del X, Y, older
print(alive("older D8"))
del younger
print(alive("older D8"), alive("younger Q8"))
"""


def test_an_older_group_lives_while_a_younger_group_it_met_lives():
    # the entries keyed by both groups live in the younger group's memo,
    # and their keys and values hold the older group: dropping the older
    # one frees it only once the younger one is dropped too
    proc = _run_fresh(_OLDER_MET_BY_YOUNGER)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "0", "0"]


def retained_per_copy(run, base, copies):
    """Bytes still allocated, after a full collection, per dropped copy of
    ``base`` that ``run`` was called on.  Two copies run first, so that
    what the catalog's groups keep for good is not counted."""
    for _ in range(2):
        run(groups.FiniteGroup(base.table))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(copies):
            run(groups.FiniteGroup(base.table))
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / copies


if __name__ == "__main__":
    import time
    # 200 dropped copies of D8 keep under 1 KB each, where caches that
    # held every group kept about 382 KB (hat_dimension) and 14 KB
    # (subcharacter_classes) each; the prime-fibre cross-check memoizes
    # its generator data per (G, C), and compose the profiles of its
    # classes and the double cosets of its middle group, which must go
    # with G as well
    paths = _dropping_paths(groups.cyclic(2), groups.cyclic(4))
    for path in ("hat_dimension", "subcharacter_classes", "compose",
                 "verify_hat_vs_quotient"):
        start = time.monotonic()
        kept = retained_per_copy(paths[path], groups.dihedral(8), 200)
        assert kept < 1024, (path, kept)
        print(f"200 dropped copies of D8 through {path}: {kept:.1f} bytes "
              f"each ({time.monotonic() - start:.1f}s)", flush=True)
    # the pruned automorphism search against the blind one, as ordered
    # lists, on D8 x D8 (2,048 automorphisms)
    start = time.monotonic()
    D8xD8 = product_embedding(groups.dihedral(8), groups.dihedral(8)).ambient
    assert list(groups.automorphisms(D8xD8).all) == ref_automorphisms(D8xD8)
    print(f"automorphisms of {D8xD8.name} against the reference search: ok "
          f"({time.monotonic() - start:.1f}s)", flush=True)
    # the enumeration beyond the shipped bound: G x G for every catalog
    # group G of order 9-15, against the reference as ordered lists, the
    # bound raised in this process only
    groups.SUBGROUP_ORDER_BOUND = 225
    for G in small_groups_catalog():
        if G.order < 9:
            continue
        GG = product_embedding(G, G).ambient
        start = time.monotonic()
        assert [S.elements for S in subgroups(GG)] == ref_subgroups(GG), \
            GG.name
        print(f"{GG.name}: ok ({time.monotonic() - start:.1f}s)", flush=True)
