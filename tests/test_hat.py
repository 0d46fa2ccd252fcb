"""Ideal membership, the quotient algebra, the prime-fibre structure and
the end-to-end counterexample."""

import json

import pytest

from fibredburnside import fibred, groups, hat
from fibredburnside.fibred import (
    FibreError,
    canonicalize,
    compose,
    element_of,
    identity_element,
    opposite,
    transitive_basis,
    transitive_fibred_biset,
)
from fibredburnside.groups import (
    BoundExceededError,
    GroupError,
    automorphisms,
    center,
    cyclic,
    dihedral,
    frattini,
    group_from_spec,
    isomorphism,
    product_embedding,
    small_groups_catalog,
)
from fibredburnside.hat import (
    HatGenerator,
    counterexample_verify,
    hat_basis_prime,
    hat_dimension,
    hat_generator_class,
    hat_multiply,
    is_in_ideal,
    verify_hat_vs_quotient,
)

from helpers import (
    _run_fresh,
    frattini_criterion,
    live_groups,
    memo_entries,
    ref_hat_basis_prime,
    ref_hat_table,
    ref_verify_hat_vs_quotient,
    seed_index,
    transport_hat_generator,
)
from test_fibred import counterexample_class


# -- ideal membership ---------------------------------------------------------


def test_identity_never_factors():
    for spec in ("C2", "C4", "S3"):
        G = group_from_spec(spec)
        ident = next(iter(identity_element(G, cyclic(2)).terms))
        assert is_in_ideal(ident) is None


def test_counterexample_idempotent_not_in_ideal():
    X = counterexample_class()
    W = compose(element_of(X), element_of(opposite(X)))
    (wcls, _), = W.terms.items()
    assert is_in_ideal(wcls) is None


def test_full_product_class_factors(c4, c2):
    emb = product_embedding(c4, c4)
    X = canonicalize(transitive_fibred_biset(
        c4, c4, c2, range(16), [0] * 16))
    w = is_in_ideal(X)
    assert w is not None
    assert w.K.order < 4
    assert hat._witness_matches(X, w)


def test_witnesses_are_valid_on_sample(d8, c2):
    checked = 0
    for X in transitive_basis(d8, d8, c2):
        w = is_in_ideal(X)
        if w is not None:
            assert w.K.order < 8
            assert hat._witness_matches(X, w)
            checked += 1
        if checked >= 12:
            break
    assert checked == 12


def test_witness_json_rebuilds_its_factorization(c2, c4):
    # a and b rebuilt from to_json alone, K from the name "through" gives,
    # compose to a sum that holds the class; reduction and sweep witnesses
    # both occur
    kinds = {"reduction": 0, "sweep": 0}
    for G in small_groups_catalog(6) + [group_from_spec("C4xC2")]:
        for C in (c2, c4):
            for X in transitive_basis(G, G, C):
                w = is_in_ideal(X)
                if w is None:
                    continue
                data = json.loads(json.dumps(w.to_json()))
                K = group_from_spec(data["through"])
                a = transitive_fibred_biset(G, K, C, data["a"]["D"],
                                            data["a"]["delta"])
                b = transitive_fibred_biset(K, G, C, data["b"]["D"],
                                            data["b"]["delta"])
                terms = compose(element_of(a), element_of(b),
                                check=True).terms
                assert X in terms, (X.describe(), data)
                reduced = hat._reduction_witness(X) is not None
                kinds["reduction" if reduced else "sweep"] += 1
    assert kinds["reduction"] and kinds["sweep"], kinds


def test_ideal_count_matches_basis_split(s3, c2):
    basis = transitive_basis(s3, s3, c2)
    dim, survivors = hat_dimension(s3, c2)
    in_ideal = [X for X in basis if is_in_ideal(X) is not None]
    assert dim + len(in_ideal) == len(basis)
    assert all(X not in in_ideal for X in survivors)


def test_hat_dimension_bouc_factorizes_no_candidate(monkeypatch, q8, c4):
    # every candidate has full projections and trivial reduced kernels, so
    # its decision tests them and factors nothing; a class with a proper
    # middle is factored once, on the side it is witnessed through
    calls = []
    real = hat._bouc_side
    monkeypatch.setattr(hat, "_bouc_side",
                        lambda X, side: calls.append((X, side))
                        or real(X, side))
    for G in live_groups():
        G._memo.pop(hat._ideal_decision, None)
    assert hat_dimension(q8, c4)[0] == 30
    assert calls == []
    whole = canonicalize(transitive_fibred_biset(q8, q8, c4, range(64),
                                                 [0] * 64))
    assert is_in_ideal(whole).K.order == 1
    assert calls == [(whole, 1)]


def test_second_hat_dimension_rebuilds_no_candidate(monkeypatch, q8, c4):
    # the candidates are memoized per (G, C) as a tuple, so a warm call
    # decides the same classes without redoing the Goursat enumeration
    first = hat_dimension(q8, c4)
    calls = []
    real = hat._kept_factors
    monkeypatch.setattr(hat, "_kept_factors",
                        lambda *args: calls.append(args) or real(*args))
    second = hat_dimension(q8, c4)
    assert calls == []
    assert second[0] == first[0] == 30
    assert [X.raw for X in second[1]] == [X.raw for X in first[1]]
    assert type(hat._candidates(q8, c4)) is tuple


def test_catalog_bound_guard(c2):
    # C17 x C17 is beyond every enumeration, but its identity class needs
    # none; the catalog stops at 15, short of the orders below 17
    ident = next(iter(identity_element(cyclic(17), c2).terms))
    with pytest.raises(BoundExceededError,
                       match="catalog up to 15 cannot cover orders below 17"):
        is_in_ideal(ident)


# -- hat dimensions -----------------------------------------------------------


def test_hat_dimension_checks_its_inputs_first(c2, c3, s3):
    # no class over G x G is enumerated, so these are checked up front
    with pytest.raises(FibreError,
                       match="^fibre group must be abelian, S3 is not$"):
        hat_dimension(c2, s3)
    with pytest.raises(BoundExceededError, match="^subgroup enumeration "
                       "bound exceeded: 81 > 64$"):
        hat_dimension(cyclic(9), c3)


def test_hat_dimension_trivial_group(c1, c2):
    dim, basis = hat_dimension(c1, c2)
    assert dim == 1


def test_hat_dimension_c2(c2):
    dim, _ = hat_dimension(c2, c2)
    assert dim == 2
    assert len(hat_basis_prime(c2, c2)) == 2


def test_hat_dimension_c4(c4, c2):
    dim, basis = hat_dimension(c4, c2)
    assert dim == 6
    gens = hat_basis_prime(c4, c2)
    assert len(gens) == 6
    assert sum(1 for g in gens if g.variant == "X") == 4
    assert sum(1 for g in gens if g.variant == "Y") == 2
    assert {hat_generator_class(g).raw for g in gens} == \
        {X.raw for X in basis}


def test_hat_basis_s3(s3, c2):
    gens = hat_basis_prime(s3, c2)
    assert len(gens) == 2
    assert all(g.variant == "X" for g in gens)  # odd center order


def test_hat_basis_q8(q8, c2):
    gens = hat_basis_prime(q8, c2)
    assert len(gens) == 30
    assert sum(1 for g in gens if g.variant == "X") == 24
    assert sum(1 for g in gens if g.variant == "Y") == 6


def test_hat_basis_c4_c3(c4, c3):
    gens = hat_basis_prime(c4, c3)
    assert len(gens) == 2  # one character, two outer classes, no Y part
    assert all(g.variant == "X" for g in gens)


def test_hat_basis_needs_prime_fibre(q8, c4):
    with pytest.raises(GroupError):
        hat_basis_prime(q8, c4)


def test_hat_basis_prime_matches_reference(monkeypatch, c2, c3):
    # as ordered lists: _hat_table reads the generators in this index order
    for G in small_groups_catalog(8):
        for C in (c2, c3):
            assert hat_basis_prime(G, C) == ref_hat_basis_prime(G, C), \
                (G.name, C.name)
    # C9 with C3 has two fibre embeddings (the bound raised for this test
    # only)
    monkeypatch.setattr(groups, "SUBGROUP_ORDER_BOUND", 81)
    c9 = cyclic(9)
    gens = hat_basis_prime(c9, c3)
    assert gens == ref_hat_basis_prime(c9, c3)
    assert sum(g.variant == "Y" for g in gens) == 12


def test_fibre_embeddings_need_p_to_divide_the_centre():
    # the embeddings of C_p land in Z(G) meet Phi(G), so they exist exactly
    # when p divides the order of that subgroup (Cauchy), which divides
    # |Z(G)| (Lagrange): the basis needs no gate on |Z(G)|.  The converse
    # of the gate fails: C2, C2xC2 and D12 with C2 have none, though 2
    # divides |Z(G)|
    divides = empty = 0
    for G in small_groups_catalog():
        both = center(G).mask & frattini(G).mask
        for p in (2, 3, 5, 7):
            embs = hat._fibre_embeddings(G, cyclic(p))
            assert (embs != []) == (bin(both).count("1") % p == 0), \
                (G.name, p)
            if center(G).order % p:
                assert embs == [], (G.name, p)
            else:
                divides += 1
                empty += embs == []
    assert (divides, empty) == (27, 19)


def test_fibre_embeddings_read_the_homomorphism_search():
    # a C5 whose elements are not numbered by powers of a generator:
    # element i is c^e for e = 0, 1, 3, 2, 4
    power = (0, 1, 3, 2, 4)
    C = groups.FiniteGroup([[power.index((power[i] + power[j]) % 5)
                             for j in range(5)] for i in range(5)],
                           name="C5'")
    G = cyclic(25)
    target = center(G).mask & frattini(G).mask
    embs = hat._fibre_embeddings(G, C)
    assert embs == sorted(z for z in groups.homomorphisms(C, G)
                          if len(set(z)) == 5
                          and all(target >> x & 1 for x in z))
    assert len(embs) == 4
    gens = hat_basis_prime(G, C)
    # 5 characters and 20 outer classes, 20 outer classes and 4 embeddings
    assert len(gens) == 5 * 20 + 20 * 4
    for gen in gens:
        if gen.variant == "Y":
            assert groups.check_homomorphism(C, G, gen.zeta) == gen.zeta


def test_is_prime_by_trial_division():
    primes = [n for n in range(60) if hat.is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]


# -- generator products -------------------------------------------------------


def test_generators_are_tuples_equal_by_value(c4, c2):
    gens = hat_basis_prime(c4, c2)
    products = [hat_multiply(a, b) for a in gens for b in gens]
    for g in gens + [p for p in products if p is not None]:
        fields = (g.t, g.sigma) if g.variant == "X" else (g.omega, g.zeta)
        assert all(type(f) is tuple for f in fields), g
    twin_group = groups.FiniteGroup(c4.table)
    for g in gens:
        # equal tuples built apart, over the same group objects
        twin = HatGenerator(g.variant, c4, c2,
                            *(None if f is None else tuple(list(f))
                              for f in g[3:]))
        assert twin == g and hash(twin) == hash(g)
        # groups compare by identity
        assert HatGenerator(g.variant, twin_group, c2, *g[3:]) != g


def test_unknown_generator_variant_is_rejected(c4, c2):
    with pytest.raises(GroupError, match="variant must be 'X' or 'Y'"):
        HatGenerator("Z", c4, c2, t=(0, 0, 0, 0), sigma=(0, 1, 2, 3))


def _identity_generator(G, C):
    gens = hat_basis_prime(G, C)
    for g in gens:
        if g.variant == "X" and not any(g.t) and \
                g.sigma == tuple(range(G.order)):
            return g
    raise AssertionError("identity generator missing")


def test_identity_generator_is_neutral(c4, c2):
    one = _identity_generator(c4, c2)
    assert hat_generator_class(one).raw == \
        next(iter(identity_element(c4, c2).terms)).raw
    for g in hat_basis_prime(c4, c2):
        assert hat_multiply(one, g) == g
        assert hat_multiply(g, one) == g


def test_yy_vanishes_unless_transported(q8, c2):
    gens = [g for g in hat_basis_prime(q8, c2) if g.variant == "Y"]
    for a in gens:
        for b in gens:
            prod = hat_multiply(a, b)
            wz = tuple(a.omega[b.zeta[c]] for c in range(2))
            assert (prod is None) == (wz != a.zeta)


def test_xy_survival_example(c4, c2):
    # t the surjection C4 -> C2, zeta into <g^2>: t kills the image, so
    # the induced fibre map is the identity and the product is nonzero
    gens = hat_basis_prime(c4, c2)
    x = next(g for g in gens if g.variant == "X"
             and any(g.t)
             and g.sigma == (0, 1, 2, 3))
    y = next(g for g in gens if g.variant == "Y"
             and g.omega == (0, 1, 2, 3))
    assert tuple(x.t[v] for v in y.zeta) == (0, 0)
    prod = hat_multiply(x, y)
    assert prod is not None and prod.variant == "Y"


def test_yy_zero_branch_with_two_embeddings(c3):
    # C9 has two distinct fibre embeddings into its Frattini subgroup, so
    # the transported-embedding condition genuinely fails for mixed pairs
    c9 = cyclic(9)
    gens = [g for g in hat_basis_prime(c9, c3) if g.variant == "Y"]
    zetas = {g.zeta for g in gens}
    assert len(zetas) == 2
    ident = [g for g in gens if g.omega == tuple(range(9))]
    assert len(ident) == 2
    a, b = ident
    assert hat_multiply(a, b) is None
    assert hat_multiply(b, a) is None
    assert hat_multiply(a, a) == a
    assert hat_multiply(b, b) == b


def test_mixed_rules_invert_the_fibre_value(monkeypatch, c3):
    # C9 with C3 is the only catalog case of order <= 15 with an odd prime
    # and a Y generator, so the only one where the fibre value's inverse
    # differs from it; the product ambient C9 x C9 is above the shipped
    # bound, which is raised for this test alone
    monkeypatch.setattr(groups, "SUBGROUP_ORDER_BOUND", 81)
    c9 = cyclic(9)
    gens = hat_basis_prime(c9, c3)
    one = tuple(range(9))
    x = HatGenerator("X", c9, c3, t=(0, 1, 2, 0, 1, 2, 0, 1, 2), sigma=one)
    y = HatGenerator("Y", c9, c3, omega=one, zeta=(0, 3, 6))
    product = HatGenerator("Y", c9, c3, omega=(0, 7, 5, 3, 1, 8, 6, 4, 2),
                           zeta=(0, 3, 6))
    assert {x, y, product} <= set(gens)
    assert hat_multiply(x, y) == product
    assert hat_multiply(y, x) == product
    for report in (verify_hat_vs_quotient(c9, c3),
                   ref_verify_hat_vs_quotient(c9, c3)):
        assert report["ok"], report["mismatches"][:2]
        assert report["pairs"] == 900


def times(x, y):
    """hat_multiply with None, the zero product, absorbing on both sides."""
    return None if x is None or y is None else hat_multiply(x, y)


def test_hat_multiply_associative_q8(q8, c2):
    gens = hat_basis_prime(q8, c2)
    for a in gens[::5]:
        for b in gens:
            ab = hat_multiply(a, b)
            for c in gens[::7]:
                assert times(ab, c) == times(a, hat_multiply(b, c))


def test_hat_multiply_associative_on_generators(c4, c2, s3):
    for G in (c4, s3):
        gens = hat_basis_prime(G, c2)
        for a in gens:
            for b in gens:
                ab = hat_multiply(a, b)
                for c in gens:
                    assert times(ab, c) == times(a, hat_multiply(b, c))


def test_verify_hat_vs_quotient_small():
    for spec, pairs in (("C2", 4), ("C4", 36), ("S3", 4)):
        G = group_from_spec(spec)
        report = verify_hat_vs_quotient(G, cyclic(2))
        assert report["ok"], report["mismatches"]
        assert report["pairs"] == pairs


def test_verify_hat_vs_quotient_c3_fibre():
    for spec in ("C3", "S3", "C4"):
        G = group_from_spec(spec)
        report = verify_hat_vs_quotient(G, cyclic(3))
        assert report["ok"], report["mismatches"]


def check_prime_census(G, C) -> dict:
    """The survivors of hat_dimension are exactly the closed-form
    generator classes, and the product rules pass the cross-check, whose
    report is returned."""
    _, basis = hat_dimension(G, C)
    assert ({hat_generator_class(g).raw for g in hat_basis_prime(G, C)}
            == {X.raw for X in basis})
    report = verify_hat_vs_quotient(G, C)
    assert report["ok"], report["mismatches"][:2]
    return report


# -- the cross-check composes one pair per orbit; the n^2 check of
#    ``helpers.ref_verify_hat_vs_quotient`` is its oracle


CROSS_CHECK_GROUPS = [G for G in small_groups_catalog(8)
                      if G.name != "C2xC2xC2"]


@pytest.mark.parametrize("fibre", ["C2", "C3"])
@pytest.mark.parametrize("G", CROSS_CHECK_GROUPS, ids=lambda G: G.name)
def test_verify_hat_vs_quotient_matches_reference(G, fibre):
    # run as a script, this file checks the census for orders 9-15 too
    C = group_from_spec(fibre)
    report = check_prime_census(G, C)
    ref = ref_verify_hat_vs_quotient(G, C)
    assert (report["ok"], report["pairs"], report["mismatches"]) == \
        (ref["ok"], ref["pairs"], ref["mismatches"])


@pytest.fixture()
def composed_pairs(monkeypatch):
    """The (left, right) class keys of every compose call the cross-check
    makes."""
    pairs = []
    real = hat.compose

    def recording(X, Y, check=False):
        pairs.append((next(iter(X.terms)).raw, next(iter(Y.terms)).raw))
        return real(X, Y, check=check)

    monkeypatch.setattr(hat, "compose", recording)
    return pairs


@pytest.mark.parametrize("spec, composed, pairs", [
    ("C4xC2", 306, 1600), ("C2xC2", 62, 576), ("Q8", 101, 900)])
def test_cross_check_composes_one_pair_per_orbit(composed_pairs, spec,
                                                 composed, pairs):
    report = verify_hat_vs_quotient(group_from_spec(spec), cyclic(2))
    assert report["ok"]
    assert (len(composed_pairs), report["composed"], report["pairs"]) == \
        (composed, composed, pairs)
    assert len(set(composed_pairs)) == composed


def test_cross_check_compositions_on_the_prime_workload(composed_pairs):
    # the groups and fibres of the benchmark's prime workload
    pairs = 0
    for G in small_groups_catalog(8):
        if G.order < 2 or G.name in ("C2xC2xC2", "D8", "Q8"):
            continue
        for C in (cyclic(2), cyclic(3)):
            report = verify_hat_vs_quotient(G, C)
            assert report["ok"]
            pairs += report["pairs"]
    assert (len(composed_pairs), pairs) == (615, 2682)


def check_table_is_hat_multiply(G, C, table):
    """``table`` is ``ref_hat_table``: hat_multiply on every generator
    pair, each product mapped through the generator positions, where a
    product outside the basis is a failure."""
    gens = hat_basis_prime(G, C)
    outside = []
    ref = ref_hat_table(gens, {g: i for i, g in enumerate(gens)}, outside)
    assert outside == []
    assert table == ref


def test_cross_check_table_is_hat_multiply(monkeypatch, c3):
    # every catalog group of order <= 8 with C2 and C3, but C2xC2xC2 with
    # C2 (1,344 generators), which this file checks when run as a script,
    # with orders 9-15
    for G in small_groups_catalog(8):
        for fibre in ("C2", "C3"):
            if (G.name, fibre) == ("C2xC2xC2", "C2"):
                continue
            C = group_from_spec(fibre)
            check_table_is_hat_multiply(
                G, C, verify_hat_vs_quotient(G, C)["table"])
    # below order 9 no Y generator has an odd fibre or two embeddings;
    # C9 with C3 has both (the bound raised for this test only)
    monkeypatch.setattr(groups, "SUBGROUP_ORDER_BOUND", 81)
    c9 = cyclic(9)
    check_table_is_hat_multiply(c9, c3, hat._hat_table(c9, c3))


def test_second_cross_check_multiplies_no_pair(monkeypatch, c2):
    # the table is read off the index tables of the one record per
    # (G, C): hat_multiply is never called, and a second check builds no
    # record again.  The generator classes and their moves are in the
    # record too, so a second check builds neither; its compositions read
    # the profiles and double cosets the first one stored, and search no
    # double coset again.  A new copy of C4xC2 has no memo yet
    G = groups.FiniteGroup(group_from_spec("C4xC2").table)
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    for name in ("hat_multiply", "hat_generator_class", "_generator_moves"):
        counting(hat, name)
    counting(fibred, "double_coset_representatives")
    memos = (hat._prime_data, fibred._left_profile, fibred._right_profile,
             fibred._double_cosets)
    before = [memo_entries(fn) for fn in memos]
    first = verify_hat_vs_quotient(G, c2)
    built = [memo_entries(fn) for fn in memos]
    assert (first["ok"], built[0]) == (True, before[0] + 1)
    assert all(b > a for a, b in zip(before, built))
    assert "hat_multiply" not in calls
    assert calls.count("_generator_moves") == 1
    assert "double_coset_representatives" in calls
    calls.clear()
    assert verify_hat_vs_quotient(G, c2) == first
    assert [memo_entries(fn) for fn in memos] == built
    assert calls == []


def test_failing_cross_checks_report_the_same_mismatches(monkeypatch, c2):
    # the move mismatches are memoized with the moves and copied into each
    # report, so those of one check never carry over to the next
    G = groups.FiniteGroup(group_from_spec("C4xC2").table)
    real = hat._hat_table(G, c2)

    def mutated(group, fibre):
        table = [list(row) for row in real]
        table[1][2] = -1
        return table

    monkeypatch.setattr(hat, "_hat_table", mutated)
    first = verify_hat_vs_quotient(G, c2)
    second = verify_hat_vs_quotient(G, c2)
    assert not first["ok"] and first["mismatches"]
    assert second["mismatches"] == first["mismatches"]
    assert second["mismatches"] is not first["mismatches"]


# mutations: each breaks one input of the reduced check on C4xC2 with C2,
# and the check must fail


def test_cross_check_catches_a_wrong_product_off_the_representatives(
        composed_pairs, monkeypatch, c2):
    G = group_from_spec("C4xC2")
    assert verify_hat_vs_quotient(G, c2)["ok"]
    composed = set(composed_pairs)
    gens = hat_basis_prime(G, c2)
    real = hat._hat_table(G, c2)
    wrong = next((a, b) for a in range(len(gens)) for b in range(len(gens))
                 if (hat_generator_class(gens[a]).raw,
                     hat_generator_class(gens[b]).raw) not in composed
                 and real[a][b] >= 0)

    def mutated(group, fibre):
        table = [list(row) for row in real]
        table[wrong[0]][wrong[1]] = -1
        return table

    monkeypatch.setattr(hat, "_hat_table", mutated)
    composed_pairs.clear()
    report = verify_hat_vs_quotient(G, c2)
    assert not report["ok"]
    assert set(composed_pairs) == composed
    assert any("symmetry" in m for m in report["mismatches"])


def test_cross_check_catches_a_wrong_class_move(monkeypatch, c2):
    # with opposite the identity, the opposite move would swap the factors
    # and fix every generator, which asks the table to be commutative; the
    # Hom x| Out product of C4xC2 is not.  The first run fills the ideal
    # caches, so that the mutation reaches the moves alone; the moves are
    # in the new group's record of (G, C), so it is dropped there to be
    # built again under the mutation
    G = groups.FiniteGroup(group_from_spec("C4xC2").table)
    assert verify_hat_vs_quotient(G, c2)["ok"]
    del G._memo[hat._prime_data][G, c2]
    monkeypatch.setattr(hat, "opposite", lambda X: X)
    report = verify_hat_vs_quotient(G, c2)
    assert not report["ok"]
    assert all(m["symmetry"] == "opposite" for m in report["mismatches"])


def test_cross_check_catches_a_wrong_generator_class(monkeypatch, c2):
    # a new copy of C4xC2; hat_basis_prime fills its record of (G, C),
    # classes included, so the record is dropped before the mutation
    G = groups.FiniteGroup(group_from_spec("C4xC2").table)
    broken = hat_basis_prime(G, c2)[1]
    del G._memo[hat._prime_data][G, c2]
    real = hat.hat_generator_class
    n = G.order * G.order
    # the class of the whole of G x G with the trivial character; it
    # factors through C1, so it is no generator's class
    whole = canonicalize(transitive_fibred_biset(G, G, c2, range(n),
                                                 [0] * n))

    def mutated(gen):
        return whole if gen == broken else real(gen)

    monkeypatch.setattr(hat, "hat_generator_class", mutated)
    assert not verify_hat_vs_quotient(G, c2)["ok"]


# -- Frattini criterion and Y-class vanishing ----------------------------------


def test_frattini_criterion_matches_membership():
    c2 = cyclic(2)
    for spec in ("C2", "C4", "C2xC2", "Q8", "D8"):
        G = group_from_spec(spec)
        ident = automorphisms(G).out_representatives[0]
        phi_mask = frattini(G).mask
        # every fibre embedding into the center, in the Frattini subgroup
        # or not
        for z in center(G).elements:
            if G.element_order(z) != 2:
                continue
            zeta = (0, z)
            lands_in_phi = bool((phi_mask >> z) & 1)
            assert frattini_criterion(G, c2, zeta) == lands_in_phi
            cls = hat_generator_class(HatGenerator("Y", G, c2, omega=ident,
                                                   zeta=zeta))
            witness = is_in_ideal(cls)
            assert (witness is None) == lands_in_phi


def test_mixed_products_rest_on_the_frattini_lemma():
    # hat_multiply's mixed rules have no zero branch: every character
    # kills a Y generator's zeta, and so the group map of Y.X is an
    # automorphism; that of X.Y is the same map with sigma = 1 and the
    # character t o omega.  No product ambient is built, so this covers
    # the whole catalog at the shipped bound.
    pairs = y_count = 0
    for G in small_groups_catalog():
        if G.order < 2:
            continue
        reps = automorphisms(G).out_rep_of
        for spec in ("C2", "C3", "C5"):
            C = group_from_spec(spec)
            gens = hat_basis_prime(G, C)
            pairs += 1
            for y in gens:
                if y.variant != "Y":
                    continue
                y_count += 1
                assert frattini_criterion(G, C, y.zeta)
                w, z = y.omega, y.zeta
                for x in gens:
                    if x.variant != "X":
                        continue
                    t, s = x.t, x.sigma
                    assert tuple(G.mul(w[s[g]], z[C.inverses[t[g]]])
                                 for g in range(G.order)) in reps
    assert (pairs, y_count) == (81, 40)


# -- seed index ----------------------------------------------------------------


def test_seed_index_small_catalog(c2):
    entries = seed_index(small_groups_catalog(2), c2)
    assert [(e["group"], e["dimension"]) for e in entries] == \
        [("C1", 1), ("C2", 2)]


def test_seed_index_q8_entry(c2):
    entries = seed_index(small_groups_catalog(8), c2)
    by_name = {e["group"]: e for e in entries}
    assert by_name["Q8"]["dimension"] == 30
    assert by_name["Q8"]["y_generators"] == 6
    assert by_name["D8"]["dimension"] == 10


def test_seed_entries_iso_invariant(s3, c2):
    d6 = dihedral(6)
    phi = isomorphism(s3, d6)
    assert phi is not None
    transported = {transport_hat_generator(g, d6, phi)
                   for g in hat_basis_prime(s3, c2)}
    native = set(hat_basis_prime(d6, c2))
    assert transported == native


def test_transport_respects_products(s3, c2):
    d6 = dihedral(6)
    phi = isomorphism(s3, d6)
    gens = hat_basis_prime(s3, c2)
    for a in gens:
        for b in gens:
            direct = hat_multiply(transport_hat_generator(a, d6, phi),
                                  transport_hat_generator(b, d6, phi))
            product = hat_multiply(a, b)
            assert direct == (None if product is None
                              else transport_hat_generator(product, d6, phi))


# -- the counterexample -------------------------------------------------------


def test_counterexample_verify_passes():
    report = counterexample_verify()
    assert report["ok"]
    assert report["left_group"] == "Q8"
    assert report["right_group"] == "D8"
    assert report["fibre"] == "C4"
    assert len(report["searched_groups"]) == 9
    assert report["swept_groups"] == ["C4", "C2xC2", "C5", "C6", "S3", "C7"]
    names = [s["name"] for s in report["steps"]]
    assert any("k1(D) = <x^2>" in n for n in names)
    assert all(s["ok"] for s in report["steps"])


# Run in a fresh interpreter: the session fixtures hold group objects that
# a cleared cache would no longer hand out.
_CLEAR_AND_RERUN = """
import json
from fibredburnside.hat import counterexample_verify
from helpers import live_groups, package_caches

def caches():
    # entries per memoized function over every live group's memo, and
    # per builder cache
    sizes = {n: f.cache_info().currsize for n, f in package_caches().items()}
    for G in live_groups():
        for f, entries in G._memo.items():
            name = f"{f.__module__}.{f.__qualname__}"
            sizes[name] = sizes.get(name, 0) + len(entries)
    return sizes

first = counterexample_verify(7)
filled = caches()
for G in live_groups():
    G._memo.clear()
for f in package_caches().values():
    f.cache_clear()
cleared = caches()
second = counterexample_verify(7)
print(json.dumps({"first": first, "second": second, "filled": filled,
                  "cleared": cleared}))
"""


def test_cleared_caches_give_the_same_counterexample_report():
    proc = _run_fresh(_CLEAR_AND_RERUN)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    # the caches the run fills, among them the ideal decisions and sweeps
    used = {n for n, size in data["filled"].items() if size}
    assert {"fibredburnside.hat._ideal_decision",
            "fibredburnside.hat._ideal_sweep",
            "fibredburnside.groups.product_embedding",
            "fibredburnside.groups._subgroups",
            "fibredburnside.groups._homomorphisms",
            "fibredburnside.fibred._canonical_pairs"} <= used
    assert not any(data["cleared"].values())
    assert json.dumps(data["first"]) == json.dumps(data["second"])


_MAXIMAL_BELOW_ENTRIES = """
from fibredburnside import fibred, groups, hat
from helpers import memo_entries
hat.counterexample_verify(7)
for g_spec in ("Q8", "D8"):
    hat.hat_dimension(groups.group_from_spec(g_spec),
                      groups.group_from_spec("C4"))
print(memo_entries(hat._maximal_below))
"""


def test_maximal_groups_are_cached_once_per_group():
    # the quotient workload asks about Q8 and D8 only, so one list each
    proc = _run_fresh(_MAXIMAL_BELOW_ENTRIES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2"]


_SWEEP_BUILDS_NOTHING = """
import json
from fibredburnside import fibred, groups, hat

subgroups_of, homomorphisms_on = [], []
subgroups, homomorphisms = groups._subgroups, groups._homomorphisms

def record_subgroups(G):
    subgroups_of.append(G)
    return subgroups(G)

def record_homomorphisms(domain, C):
    homomorphisms_on.append(domain)
    return homomorphisms(domain, C)

groups._subgroups = record_subgroups
groups._homomorphisms = record_homomorphisms

def products(G):
    # G x C1 is G itself, whose subgroups the sweep does read
    return {groups.product_embedding(*pair).ambient
            for K in hat._catalog_below(G.order) if K.order > 1
            for pair in ((G, K), (K, G))}

out = {}
for g_spec, c_spec in (("Q8", "C4"), ("D8", "C4")):
    G, C = groups.group_from_spec(g_spec), groups.group_from_spec(c_spec)
    hat.hat_dimension(G, C)
    through = products(G)
    out[g_spec + "/" + c_spec] = {
        "sweeps": [len(hat._ideal_sweep(G, C, K))
                   for K in hat._maximal_below(G)],
        "products": sum(S in through for S in subgroups_of)}
for g_spec, c_spec in (("S3", "C2"), ("S3", "C3"), ("C3", "C2")):
    G, C = groups.group_from_spec(g_spec), groups.group_from_spec(c_spec)
    del homomorphisms_on[:]
    sweeps = [len(hat._ideal_sweep(G, C, K)) for K in hat._maximal_below(G)]
    through = products(G)
    out[g_spec + "/" + c_spec] = {
        "sweeps": sweeps,
        "products": sum(getattr(D, "parent", None) in through
                        for D in homomorphisms_on)}
print(json.dumps(out))
"""


def test_sweep_builds_no_subgroup_of_a_product_through_k():
    # the kept factors come from Goursat data over G and K: no sweep
    # enumerates the subgroups of G x K, nor the characters of one, and
    # the sweeps of these groups are empty
    proc = _run_fresh(_SWEEP_BUILDS_NOTHING)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data == {
        "Q8/C4": {"sweeps": [0] * 6, "products": 0},
        "D8/C4": {"sweeps": [0] * 6, "products": 0},
        "S3/C2": {"sweeps": [0] * 4, "products": 0},
        "S3/C3": {"sweeps": [0] * 4, "products": 0},
        "C3/C2": {"sweeps": [0], "products": 0},
    }


_HAT_DECIDES_ONLY_CANDIDATES = """
import json
from fibredburnside import fibred, groups, hat
from helpers import memo_entries

subgroups_of = []
subgroups = groups._subgroups

def record_subgroups(G):
    subgroups_of.append(G)
    return subgroups(G)

groups._subgroups = record_subgroups
out = {}
products = set()
for g_spec in ("Q8", "D8"):
    G, C = groups.group_from_spec(g_spec), groups.group_from_spec("C4")
    out[g_spec] = hat.hat_dimension(G, C)[0]
    products.add(groups.product_embedding(G, G).ambient)
out["class_keys"] = memo_entries(fibred._class_keys)
out["decisions"] = memo_entries(hat._ideal_decision)
out["products"] = sum(S in products for S in subgroups_of)
print(json.dumps(out))
"""


def test_hat_dimension_decides_only_its_candidates():
    # the basis over G x G is never built: no class keys, no subgroups of
    # G x G, and one ideal decision per candidate (all of them survive)
    proc = _run_fresh(_HAT_DECIDES_ONLY_CANDIDATES)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "Q8": 30, "D8": 14, "class_keys": 0, "decisions": 44, "products": 0}


def test_counterexample_contrast_with_prime_fibre(q8, d8, c2):
    # with a prime fibre the same subgroup's idempotent dies in the
    # quotient: no class survives on both sides
    emb = product_embedding(q8, d8)
    D = emb.ambient.generated_subgroup([emb.encode(1, 1), emb.encode(4, 4)])
    from fibredburnside.groups import homomorphisms
    for delta in homomorphisms(D, c2):
        X = canonicalize(
            transitive_fibred_biset(q8, d8, c2, D.elements, delta))
        W = compose(element_of(X), element_of(opposite(X)))
        assert all(is_in_ideal(cls) is not None for cls in W.terms)


if __name__ == "__main__":
    # the index table of C2xC2xC2 with C2 against ref_hat_table, then the
    # prime-fibre census beyond the shipped bound: every catalog group of
    # order 9-15 with C2 and C3, the bound raised in this process only,
    # with the index table against ref_hat_table
    import time
    G, C = group_from_spec("C2xC2xC2"), group_from_spec("C2")
    start = time.monotonic()
    check_table_is_hat_multiply(G, C, hat._hat_table(G, C))
    print(f"{G.name} C2 table: ok ({time.monotonic() - start:.1f}s)",
          flush=True)
    groups.SUBGROUP_ORDER_BOUND = 225
    for G in small_groups_catalog():
        if G.order < 9:
            continue
        for c_spec in ("C2", "C3"):
            start = time.monotonic()
            C = group_from_spec(c_spec)
            report = check_prime_census(G, C)
            check_table_is_hat_multiply(G, C, report["table"])
            print(f"{G.name} {c_spec}: ok ({time.monotonic() - start:.1f}s)",
                  flush=True)
