"""The ring of fibred classes: bases, canonical forms, composition against
the orbit oracle, tensor and internal products, elementary classes, and
the factorization through projections."""

import itertools
import time

import pytest

from fibredburnside import fibred, sampling
from fibredburnside.fibred import (
    FibredElement,
    TransitiveFibredBiset,
    bouc_factorize,
    canonicalize,
    compose,
    compose_oracle,
    element_from_json,
    element_of,
    element_to_json,
    identity_element,
    is_idempotent,
    opposite,
    subcharacter_classes,
    transitive_basis,
    transitive_fibred_biset,
)
from fibredburnside.groups import (
    GroupError,
    check_homomorphism,
    check_subgroup,
    cyclic,
    group_from_spec,
    homomorphisms,
    isomorphism,
    product_embedding,
    quotient,
    small_groups_catalog,
)
from fibredburnside.hat import verify_hat_vs_quotient
from fibredburnside.monomial import monomial_set_from_pair

from helpers import (
    _extend_hom, brute_subcharacter_count, orbit_size, ref_compose_raw)
import setlevel
from setlevel import (
    elementary_fibred_biset,
    from_monomial_set,
    opposite_element,
    ring_identity,
    ring_product,
    tensor,
    to_monomial_set,
)


def counterexample_class(canonical=True):
    q8 = group_from_spec("Q8")
    d8 = group_from_spec("D8")
    c4 = cyclic(4)
    emb = product_embedding(q8, d8)
    gens = [emb.encode(1, 1), emb.encode(4, 4)]
    D = emb.ambient.generated_subgroup(gens)
    images = _extend_hom(emb.ambient, D.elements, gens, c4, (2, 3))
    delta = check_homomorphism(D, c4, (images[x] for x in D.elements))
    raw = TransitiveFibredBiset(q8, d8, c4, D.mask, delta)
    return canonicalize(raw) if canonical else raw


# -- subcharacter bases -------------------------------------------------------


def test_subcharacter_classes_trivial_group(c1, c4):
    assert len(subcharacter_classes(c1, c4)) == 1


def test_subcharacter_classes_c2_c2(c2):
    classes = subcharacter_classes(c2, c2)
    assert len(classes) == 3
    shapes = sorted((sc.elements, sc.delta) for sc in classes)
    assert shapes == [((0,), (0,)), ((0, 1), (0, 0)), ((0, 1), (0, 1))]


def test_subcharacter_classes_q8_counts(q8, c2, c3):
    assert len(subcharacter_classes(q8, c2)) == \
        brute_subcharacter_count(q8, c2)
    assert len(subcharacter_classes(q8, c3)) == \
        brute_subcharacter_count(q8, c3)


def test_subcharacter_classes_s3_counts(s3, c2, c3):
    for C in (c2, c3):
        assert len(subcharacter_classes(s3, C)) == \
            brute_subcharacter_count(s3, C)


def test_subcharacter_classes_are_canonical_and_distinct(d8, c2):
    classes = subcharacter_classes(d8, c2)
    assert len({sc.raw for sc in classes}) == len(classes)
    assert all(fibred._canonical_raw(d8, *sc.raw) == sc.raw
               for sc in classes)


# -- canonical forms ----------------------------------------------------------


def test_canonicalize_idempotent(rng):
    d8 = group_from_spec("D8")
    c2 = cyclic(2)
    for _ in range(10):
        X = sampling.random_transitive_class(rng, d8, d8, c2)
        assert canonicalize(X) is X


def test_canonicalize_conjugation_invariant(rng, c2):
    d8 = group_from_spec("D8")
    emb = product_embedding(d8, d8)
    for _ in range(10):
        X = sampling.random_transitive_class(rng, d8, d8, c2)
        g = rng.randrange(emb.ambient.order)
        D = check_subgroup(emb.ambient, X.elements)
        D2, delta2 = setlevel.conjugate_pair(D, X.delta, g)
        Y = TransitiveFibredBiset(d8, d8, c2, D2.mask, delta2)
        assert canonicalize(Y) == X
        assert element_of(Y) == element_of(X)


def test_classes_built_apart_are_one_value(d8, c2):
    # a conjugate listed unsorted through the validated constructor, then
    # canonicalized, equals the tuple of the canonical (mask, delta)
    amb = product_embedding(d8, d8).ambient
    X, perm = next((X, p) for X in fibred.transitive_basis(d8, d8, c2)
                   for p in map(amb.conjugation_perm, range(amb.order))
                   if fibred._permute_raw(p, X.elements, X.delta) != X.raw)
    built = canonicalize(transitive_fibred_biset(
        d8, d8, c2, [perm[x] for x in reversed(X.elements)],
        reversed(X.delta)))
    plain = TransitiveFibredBiset(d8, d8, c2, X.mask, X.delta)
    assert built == plain and hash(built) == hash(plain)
    assert {built: 1}[plain] == 1
    assert type(built).__hash__ is tuple.__hash__


def test_transitive_fibred_biset_validates(c2):
    v4, one = group_from_spec("C2xC2"), cyclic(1)
    with pytest.raises(GroupError,
                       match="^subgroup not closed under products$"):
        transitive_fibred_biset(v4, one, c2, [0, 1, 2], [0, 0, 0])
    with pytest.raises(GroupError, match="^map is not a homomorphism$"):
        transitive_fibred_biset(group_from_spec("C4"), one, c2,
                                [0, 1, 2, 3], [0, 0, 1, 1])


def test_canonical_orbit_size_divides_group_order(rng, c2):
    d8 = group_from_spec("D8")
    emb = product_embedding(d8, d8)
    for _ in range(8):
        X = sampling.random_transitive_class(rng, d8, d8, c2)
        assert emb.ambient.order % orbit_size(emb.ambient, *X.raw) == 0


# -- monomial bridge ----------------------------------------------------------


def test_identity_of_ring_over_trivial_group(c1, c4):
    # the fibre with trivial group action decomposes to the unit class
    T = monomial_set_from_pair(c1, c4, [0], lambda x: 0)
    assert from_monomial_set(T) == ring_identity(c1, c4)


def test_monomial_round_trip(rng, c4):
    s3 = group_from_spec("S3")
    for _ in range(6):
        X = sampling.random_transitive_class(rng, s3, s3, c4)
        back = from_monomial_set(to_monomial_set(X), s3, s3)
        assert back == element_of(X)


def test_monomial_disjoint_union_adds(q8, c2):
    from fibredburnside.monomial import FiniteAction, MonomialSet
    sc = subcharacter_classes(q8, c2)
    T1 = to_monomial_set(sc[0])
    T2 = to_monomial_set(sc[-1])
    n1 = T1.size
    table = []
    for a in range(T1.action.group.order):
        table.append(list(T1.action.table[a])
                     + [n1 + v for v in T2.action.table[a]])
    both = MonomialSet(q8, c2, FiniteAction(T1.action.group, table))
    both.validate()
    total = from_monomial_set(both)
    assert total == (element_of(sc[0])
                     + element_of(sc[-1]))


def test_oracle_scale_completes_quickly():
    X = counterexample_class()
    start = time.monotonic()
    result = compose_oracle(element_of(X), element_of(opposite(X)))
    elapsed = time.monotonic() - start
    assert len(result.terms) == 1
    assert elapsed < 30.0


# -- tensor and ring product --------------------------------------------------


def test_tensor_unit_law(c1, c2, d8):
    unit = ring_identity(c1, c2)
    for sc in subcharacter_classes(d8, c2)[:6]:
        y = element_of(sc)
        left = tensor(unit, y)
        # ambient of (C1, D8) product is D8 itself: classes comparable
        assert {cls.raw: v for cls, v in left.terms.items()} == \
            {cls.raw: v for cls, v in y.terms.items()}


def test_tensor_transitive_closed_form(rng, c4):
    # product of transitive classes is transitive on D x E with glued
    # character
    for gspec, hspec in (("C4", "C2"), ("C2xC2", "C4"), ("S3", "C4")):
        G = group_from_spec(gspec)
        H = group_from_spec(hspec)
        for _ in range(4):
            x = sampling.random_transitive_class(rng, G, cyclic(1), c4)
            y = sampling.random_transitive_class(rng, H, cyclic(1), c4)
            out = tensor(element_of(x), element_of(y))
            emb = product_embedding(G, H)
            pairs = sorted(
                (emb.encode(a, b), c4.mul(cx, cy))
                for a, cx in zip(x.elements, x.delta)
                for b, cy in zip(y.elements, y.delta))
            expected = canonicalize(transitive_fibred_biset(
                G, H, c4, [p[0] for p in pairs], [p[1] for p in pairs]))
            assert out == element_of(expected)


def test_tensor_associative_up_to_regrouping(rng, c2):
    # mixed-radix encodings make the regrouping isomorphism the identity
    # on indices, so raw terms are directly comparable
    specs = ("C2", "C4", "C2xC2")
    for _ in range(5):
        G, H, K = (group_from_spec(specs[rng.randrange(3)])
                   for _ in range(3))
        one = cyclic(1)
        x = element_of(sampling.random_transitive_class(rng, G, one, c2))
        y = element_of(sampling.random_transitive_class(rng, H, one, c2))
        z = element_of(sampling.random_transitive_class(rng, K, one, c2))
        GH = product_embedding(G, H).ambient
        HK = product_embedding(H, K).ambient
        left = tensor(FibredElement(GH, one, c2, {
            TransitiveFibredBiset(GH, one, c2, *cls.raw): v
            for cls, v in tensor(x, y).terms.items()}), z)
        right = tensor(x, FibredElement(HK, one, c2, {
            TransitiveFibredBiset(HK, one, c2, *cls.raw): v
            for cls, v in tensor(y, z).terms.items()}))
        assert {c.raw: v for c, v in left.terms.items()} == \
            {c.raw: v for c, v in right.terms.items()}


def test_ring_product_unit(d8, c2):
    unit = ring_identity(d8, c2)
    for sc in subcharacter_classes(d8, c2)[::4]:
        y = element_of(sc)
        assert ring_product(unit, y) == y
        assert ring_product(y, unit) == y


def test_ring_product_matches_direct_orbit_count(c2):
    # independent recomputation over C2 with fibre C2: build the product
    # set explicitly and decompose by stabilizers
    classes = subcharacter_classes(c2, c2)
    for sc1 in classes:
        for sc2 in classes:
            x = element_of(sc1)
            y = element_of(sc2)
            result = ring_product(x, y)
            # direct model: pairs (t, u) of twisted cosets modulo the
            # antidiagonal fibre action, with diagonal group action
            T = to_monomial_set(sc1)
            U = to_monomial_set(sc2)
            emb = product_embedding(c2, c2)
            pair_reps = set()
            seen = set()
            for t in range(T.size):
                for u in range(U.size):
                    if (t, u) in seen:
                        continue
                    orbit = {(T.act(0, c, t), U.act(0, c2.inv(c), u))
                             for c in range(2)}
                    seen |= orbit
                    pair_reps.add(min(orbit))
            count = 0
            for cls, coeff in result.terms.items():
                count += coeff * (c2.order * c2.order // len(cls.elements))
            assert count == len(pair_reps)


def test_ring_product_commutative(rng, c4):
    G = group_from_spec("S3")
    one = cyclic(1)
    for _ in range(6):
        x = element_of(sampling.random_transitive_class(rng, G, one, c4))
        y = element_of(sampling.random_transitive_class(rng, G, one, c4))
        assert ring_product(x, y) == ring_product(y, x)


# -- composition --------------------------------------------------------------


def test_identity_composition(q8, c4):
    ident = identity_element(q8, c4)
    assert compose(ident, ident) == ident
    cls = next(iter(ident.terms))
    assert canonicalize(cls) is cls


def test_identity_laws_on_random_classes(rng, c4):
    q8 = group_from_spec("Q8")
    s3 = group_from_spec("S3")
    for _ in range(8):
        X = element_of(sampling.random_transitive_class(rng, q8, s3, c4))
        assert compose(identity_element(q8, c4), X, check=True) == X
        assert compose(X, identity_element(s3, c4), check=True) == X


def test_compose_counterexample_closed_form(q8, c4):
    X = counterexample_class()
    W = compose(element_of(X), element_of(opposite(X)))
    (cls, coeff), = W.terms.items()
    assert coeff == 1
    assert len(cls.elements) == 16
    emb = product_embedding(q8, q8)
    k1 = {0, 2}
    expected_pairs = {emb.encode(g1, g2)
                      for g1 in range(8) for g2 in range(8)
                      if q8.mul(g1, q8.inv(g2)) in k1}
    # the canonical representative is conjugate to the blown diagonal;
    # here the subgroup is literally equal since it is normal in G x G
    assert set(cls.elements) == expected_pairs
    assert is_idempotent(W)


def test_diagonal_composition_rule(c4, c2):
    # twisted diagonals compose by twisting characters through the
    # second automorphism
    from fibredburnside.groups import automorphisms, homomorphisms
    auts = automorphisms(c4).all
    homs = homomorphisms(c4, c2)
    emb = product_embedding(c4, c4)

    def diag_class(t, s):
        pairs = sorted((emb.encode(s[g], g), c2.inv(t[g]))
                       for g in range(4))
        return canonicalize(transitive_fibred_biset(
            c4, c4, c2, [p[0] for p in pairs], [p[1] for p in pairs]))

    for t1 in homs:
        for s1 in auts:
            for t2 in homs:
                for s2 in auts:
                    left = compose(element_of(diag_class(t1, s1)),
                                   element_of(diag_class(t2, s2)))
                    t = tuple(c2.mul(t1[s2[g]], t2[g]) for g in range(4))
                    s = tuple(s1[s2[g]] for g in range(4))
                    assert left == element_of(diag_class(t, s))


def test_compose_formula_matches_oracle_randomized(rng):
    specs = ("C2", "C3", "C4", "C2xC2", "S3", "D8", "Q8", "C8")
    fibres = [cyclic(2), cyclic(3), cyclic(4)]
    for i in range(40):
        C = fibres[rng.randrange(3)]
        G = group_from_spec(specs[rng.randrange(len(specs))])
        H = group_from_spec(specs[rng.randrange(len(specs))])
        K = group_from_spec(specs[rng.randrange(len(specs))])
        X = sampling.random_transitive_class(rng, G, H, C)
        Y = sampling.random_transitive_class(rng, H, K, C)
        compose(element_of(X), element_of(Y), check=True)
        # two-term elements, whose summands can cancel: compose builds its
        # result from canonical keys, which the oracle looks up anew
        X2 = sampling.random_transitive_class(rng, G, H, C)
        Y2 = sampling.random_transitive_class(rng, H, K, C)
        compose(FibredElement(G, H, C, {X: 1, X2: -1}),
                FibredElement(H, K, C, {Y: 1, Y2: -1}), check=True)


def _kernel_matches_reference(V, U) -> list:
    """The summands of the profiled kernel for V o U, held equal to the
    reference that decodes both classes and searches their double cosets
    anew, as ordered (h, mask, delta) lists."""
    out = fibred._compose_raw(V, U)
    assert out == ref_compose_raw(
        product_embedding(V.left, V.right),
        product_embedding(U.left, U.right), V.fibre,
        V.elements, V.delta, U.elements, U.delta), (V, U)
    return out


def test_profiled_kernel_matches_reference_on_small_catalog_triples():
    # every ordered pair of basis classes over every triple of catalog
    # groups of order <= 3, with fibres C2, C3 and C4
    small = small_groups_catalog(3)
    pairs = 0
    for C in (cyclic(2), cyclic(3), cyclic(4)):
        for G, H, K in itertools.product(small, repeat=3):
            rights = transitive_basis(H, K, C)
            for V in transitive_basis(G, H, C):
                for U in rights:
                    _kernel_matches_reference(V, U)
                    pairs += 1
    assert pairs == 2694


def test_profiled_kernel_matches_reference_on_the_prime_workload(
        monkeypatch):
    # every composition the 20 cross-checks of the benchmark's prime
    # workload make
    seen = []
    real = fibred._compose_raw

    def recording(V, U):
        seen.append((V, U))
        return real(V, U)

    monkeypatch.setattr(fibred, "_compose_raw", recording)
    for G in small_groups_catalog(8):
        if G.order < 2 or G.name in ("C2xC2xC2", "D8", "Q8"):
            continue
        for C in (cyclic(2), cyclic(3)):
            assert verify_hat_vs_quotient(G, C)["ok"]
    monkeypatch.undo()
    assert len(seen) == 615
    for V, U in seen:
        _kernel_matches_reference(V, U)


def test_profiles_of_one_subgroup_stay_apart_by_character(c4):
    # D = C2 x C4 with each of its characters in turn, composed on either
    # side with one fixed class: a profile keyed by D alone would hand
    # every composition after the first the values of the first
    c2g = cyclic(2)
    for left, right in ((c2g, c4), (c4, c2g)):
        D = product_embedding(left, right).ambient.full_subgroup()
        fixed = TransitiveFibredBiset(right, left, c4, D.mask, (0,) * 8)
        as_left, as_right = set(), set()
        for nu in homomorphisms(D, c4):
            X = TransitiveFibredBiset(left, right, c4, D.mask, nu)
            as_left.add(tuple(_kernel_matches_reference(X, fixed)))
            as_right.add(tuple(_kernel_matches_reference(fixed, X)))
        assert len(as_left) > 1 and len(as_right) > 1


def test_compose_oracle_associativity_small(rng):
    specs = ("C2", "C3", "S3", "C6")
    c2 = cyclic(2)
    for _ in range(6):
        G, H, K, L = (group_from_spec(specs[rng.randrange(4)])
                      for _ in range(4))
        x = element_of(sampling.random_transitive_class(rng, G, H, c2))
        y = element_of(sampling.random_transitive_class(rng, H, K, c2))
        z = element_of(sampling.random_transitive_class(rng, K, L, c2))
        assert compose_oracle(compose_oracle(x, y), z) == \
            compose_oracle(x, compose_oracle(y, z))


def test_compose_mismatch_errors(q8, s3, c2, c4, rng):
    X = element_of(sampling.random_transitive_class(rng, q8, s3, c2))
    Y = element_of(sampling.random_transitive_class(rng, q8, s3, c2))
    with pytest.raises(GroupError):
        compose(X, Y)  # middle groups differ (s3 vs q8)
    Z = element_of(sampling.random_transitive_class(rng, s3, q8, c4))
    with pytest.raises(GroupError):
        compose(X, Z)  # fibres differ


def test_compose_bilinear(rng, c2):
    s3 = group_from_spec("S3")
    c4g = group_from_spec("C4")
    X1 = element_of(sampling.random_transitive_class(rng, s3, c4g, c2))
    X2 = element_of(sampling.random_transitive_class(rng, s3, c4g, c2))
    Y = element_of(sampling.random_transitive_class(rng, c4g, s3, c2))
    assert compose(X1 + X2, Y) == compose(X1, Y) + compose(X2, Y)
    assert compose(X1 - X2, Y) == compose(X1, Y) - compose(X2, Y)


# -- opposites ----------------------------------------------------------------


def test_opposite_fixes_identity(q8, c4):
    ident = identity_element(q8, c4)
    assert opposite_element(ident) == ident


def test_opposite_involution(rng, c4):
    q8 = group_from_spec("Q8")
    d8 = group_from_spec("D8")
    for _ in range(8):
        X = sampling.random_transitive_class(rng, q8, d8, c4)
        assert opposite(opposite(X)) == X


def test_opposite_counterexample_generators(c4):
    X = counterexample_class(canonical=False)
    q8 = group_from_spec("Q8")
    d8 = group_from_spec("D8")
    emb = product_embedding(q8, d8)
    emb_op = product_embedding(d8, q8)
    # swap factors and invert the character, straight from the definition
    pairs = []
    for x, c in zip(X.elements, X.delta):
        g, h = emb.decode(x)
        pairs.append((emb_op.encode(h, g), c4.inv(c)))
    pairs.sort()
    raw_map = dict(pairs)
    assert raw_map[emb_op.encode(1, 1)] == 2   # (a, x) -> c^-2 = c^2
    assert raw_map[emb_op.encode(4, 4)] == 1   # (b, y) -> c
    direct = canonicalize(transitive_fibred_biset(
        d8, q8, c4, [p[0] for p in pairs], [p[1] for p in pairs]))
    assert opposite(canonicalize(X)) == direct


def test_opposite_antihomomorphism(rng, c2):
    s3 = group_from_spec("S3")
    c4g = group_from_spec("C4")
    d8 = group_from_spec("D8")
    for _ in range(8):
        X = element_of(sampling.random_transitive_class(rng, s3, c4g, c2))
        Y = element_of(sampling.random_transitive_class(rng, c4g, d8, c2))
        assert opposite_element(compose(X, Y)) == \
            compose(opposite_element(Y), opposite_element(X))


def test_idempotent_from_full_projection_classes(rng, c2, c4):
    pairs = (("Q8", "D8"), ("C4", "C2xC2"), ("S3", "C6"), ("D8", "D8"))
    for gs, hs in pairs:
        G = group_from_spec(gs)
        H = group_from_spec(hs)
        for C in (c2, c4):
            X = setlevel.random_full_projection_class(rng, G, H, C)
            if X is None:
                continue
            W = compose(element_of(X), element_of(opposite(X)))
            assert is_idempotent(W)


# -- elementary classes -------------------------------------------------------


def test_res_of_whole_group_is_identity(q8, c2):
    e = elementary_fibred_biset("res", c2, group=q8,
                                subgroup=q8.full_subgroup())
    assert element_of(e) == identity_element(q8, c2)


def test_iso_classes_compose_to_identity(klein, c2, d8):
    sub = d8.subgroup([0, 2, 4, 6])
    from fibredburnside.groups import subgroup_as_group
    sub_grp, _ = subgroup_as_group(sub)
    phi = isomorphism(klein, sub_grp)
    e1 = elementary_fibred_biset("iso", c2, group=klein, iso=(sub_grp, phi))
    inv_images = [0] * klein.order
    for g, h in enumerate(phi):
        inv_images[h] = g
    e2 = elementary_fibred_biset("iso", c2, group=sub_grp,
                                 iso=(klein, inv_images))
    assert compose(element_of(e1), element_of(e2)) == \
        identity_element(sub_grp, c2)
    assert compose(element_of(e2), element_of(e1)) == \
        identity_element(klein, c2)


@pytest.mark.parametrize("domain, images, message", [
    ("C4", (0, 1, 1, 1), "map is not a homomorphism"),
    ("C4", (0, 2, 0, 2), "iso map is not bijective"),
    ("C2", (0, 2), "iso map is not bijective"),
])
def test_iso_rejects_a_map_that_is_no_isomorphism(c2, c4, domain, images,
                                                  message):
    # the map goes from the domain group into C4
    group = c4 if domain == "C4" else c2
    with pytest.raises(GroupError, match=message):
        elementary_fibred_biset("iso", c2, group=group, iso=(c4, images))


def test_def_then_inf_is_identity_of_quotient(q8, c2):
    N = q8.subgroup([0, 2])
    dcls = elementary_fibred_biset("def", c2, group=q8, normal=N)
    icls = elementary_fibred_biset("inf", c2, group=q8, normal=N)
    Q, _ = quotient(q8, N)
    result = compose(element_of(dcls), element_of(icls), check=True)
    assert result == identity_element(Q, c2)


def test_elementary_data_validation(q8, d8, c2):
    with pytest.raises(GroupError):
        elementary_fibred_biset("inf", c2, group=d8,
                                normal=d8.subgroup([0, 4]))
    with pytest.raises(GroupError):
        elementary_fibred_biset("ind", c2, group=q8,
                                subgroup=d8.subgroup([0, 2]))
    with pytest.raises(GroupError):
        elementary_fibred_biset("nonsense", c2, group=q8)


# -- factorization through projections ----------------------------------------


def test_graph_class_reads_a_repeated_pair_once(c2, c4):
    # the diagonal of C2 x C2 with the character sending (1, 1) to c^2; a
    # pair listed again with the same value adds nothing, with another
    # value the character is ill-defined
    once = fibred._graph_class(c2, c2, c4, [(0, 0), (1, 1)], [0, 2])
    assert once.raw == (0b1001, (0, 2))
    assert fibred._graph_class(c2, c2, c4, [(1, 1), (0, 0), (1, 1)],
                               [2, 0, 2]) == once
    with pytest.raises(GroupError, match="ill-defined"):
        fibred._graph_class(c2, c2, c4, [(0, 0), (1, 1), (1, 1)], [0, 2, 1])


def test_bouc_identity_has_no_smaller_factor(q8, c2):
    ident = next(iter(identity_element(q8, c2).terms))
    f = bouc_factorize(ident)
    assert f.left_middle.order == 8
    assert f.right_middle.order == 8
    assert compose(element_of(f.left_elementary), element_of(f.beta1)) == \
        element_of(ident)


def test_bouc_counterexample_middles_are_not_smaller():
    X = counterexample_class()
    f = bouc_factorize(X)
    assert f.left_middle.order == 8
    assert f.right_middle.order == 8


def test_bouc_reduces_when_kernel_nontrivial(q8, c2):
    # full left projection with character-invisible kernel: E' is smaller
    emb = product_embedding(q8, q8)
    pairs = sorted(emb.encode(g1, g2) for g1 in range(8) for g2 in range(8)
                   if q8.mul(g1, q8.inv(g2)) in (0, 2))
    X = canonicalize(transitive_fibred_biset(q8, q8, c2, pairs,
                                             [0] * len(pairs)))
    f = bouc_factorize(X)
    assert f.left_middle.order == 4
    assert compose(element_of(f.left_elementary), element_of(f.beta1)) == \
        element_of(X)
    assert compose(element_of(f.beta2), element_of(f.right_elementary)) == \
        element_of(X)


def test_bouc_round_trip_randomized(rng):
    specs = ("C4", "C2xC2", "S3", "D8", "Q8", "C6")
    fibres = [cyclic(2), cyclic(4)]
    for _ in range(25):
        G = group_from_spec(specs[rng.randrange(len(specs))])
        H = group_from_spec(specs[rng.randrange(len(specs))])
        C = fibres[rng.randrange(2)]
        X = sampling.random_transitive_class(rng, G, H, C)
        f = bouc_factorize(X)
        e = element_of(X)
        assert compose(element_of(f.left_elementary),
                       element_of(f.beta1)) == e
        assert compose(element_of(f.beta2),
                       element_of(f.right_elementary)) == e


# -- serialization ------------------------------------------------------------


def test_element_json_round_trip(rng, c4):
    q8 = group_from_spec("Q8")
    d8 = group_from_spec("D8")
    X = element_of(sampling.random_transitive_class(rng, q8, d8, c4))
    Y = element_of(sampling.random_transitive_class(rng, q8, d8, c4))
    elt = X + Y
    data = element_to_json(elt)
    assert data["left"] == "Q8" and data["fibre"] == "C4"
    back = element_from_json(data)
    assert back == elt


@pytest.mark.parametrize("field,value", [
    ("coeff", 0.7), ("coeff", "3"), ("coeff", True),
    ("D", [0, 3.0]), ("D", [0, "3"]), ("delta", [0, 1.0]),
    ("delta", [False, 1]), ("D", "03")])
def test_element_from_json_rejects_non_integers(field, value):
    # the diagonal of C2 x C2 with its nontrivial character
    term = {"D": [0, 3], "delta": [0, 1], "coeff": 2}
    data = {"left": "C2", "right": "C2", "fibre": "C2", "terms": [term]}
    assert list(element_from_json(data).terms.values()) == [2]
    term[field] = value
    with pytest.raises(GroupError, match="integer"):
        element_from_json(data)


def test_subcharacter_json_round_trip(q8, c2):
    for sc in subcharacter_classes(q8, c2):
        back = element_from_json(element_to_json(element_of(sc)))
        assert back == element_of(sc)
        assert [cls.raw for cls in back.terms] == [sc.raw]
