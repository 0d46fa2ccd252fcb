"""Acceptance suite: every criterion is exact (integer arithmetic, zero
tolerance) and prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
the criteria complete.
"""

import random
import time

from fibredburnside import fibred, hat, sampling
from fibredburnside.fibred import (
    bouc_factorize,
    canonicalize,
    compose,
    element_of,
    identity_element,
    is_idempotent,
    opposite,
    subcharacter_classes,
    transitive_basis,
    transitive_fibred_biset,
)
from fibredburnside.goursat import kernel_part, projection
from fibredburnside.groups import (
    automorphisms,
    check_homomorphism,
    center,
    cyclic,
    group_from_spec,
    homomorphisms,
    product_embedding,
    small_groups_catalog,
    subgroups,
)
from fibredburnside.monomial import coset_action

from helpers import (
    _extend_hom,
    block_sum,
    c_free_part,
    equivariant_isomorphism,
    interleaved_product_biset,
)
import setlevel
from setlevel import mackey_glue, tensor_sets, to_monomial_set


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {status}{tail}", flush=True)
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_counterexample_regression():
    start = time.monotonic()
    c4 = cyclic(4)
    q8 = group_from_spec("Q8")
    d8 = group_from_spec("D8")
    emb = product_embedding(q8, d8)
    gens = [emb.encode(1, 1), emb.encode(4, 4)]
    D = emb.ambient.generated_subgroup(gens)
    images = _extend_hom(emb.ambient, D.elements, gens, c4, (2, 3))
    delta = check_homomorphism(D, c4, (images[x] for x in D.elements))

    # (a) projections and kernels
    ok_a = (projection(emb, D, 1).order == 8
            and projection(emb, D, 2).order == 8
            and kernel_part(emb, D, 1).elements == (0, 2)
            and kernel_part(emb, D, 2).elements == (0, 2))

    # (b) closed form of X o X-op
    X = canonicalize(fibred.TransitiveFibredBiset(q8, d8, c4, D.mask, delta))
    W = compose(element_of(X), element_of(opposite(X)), check=True)
    embGG = product_embedding(q8, q8)
    dmap = dict(zip(D.elements, delta))
    pairs = sorted((embGG.encode(g1, g2),
                    dmap[emb.encode(q8.mul(g1, q8.inv(g2)), 0)])
                   for g1 in range(8) for g2 in range(8)
                   if q8.mul(g1, q8.inv(g2)) in (0, 2))
    closed = canonicalize(transitive_fibred_biset(
        q8, q8, c4, [p[0] for p in pairs], [p[1] for p in pairs]))
    ok_b = W == element_of(closed)

    # (c) idempotency
    ok_c = is_idempotent(W)

    # (d) exhaustive absence of witnesses on both sides
    kats = [K.name for K in small_groups_catalog(7)]
    wcls = next(iter(W.terms))
    WH = compose(element_of(opposite(X)), element_of(X), check=True)
    whcls = next(iter(WH.terms))
    ok_d = (len(kats) == 9
            and hat.is_in_ideal(wcls) is None
            and is_idempotent(WH)
            and hat.is_in_ideal(whcls) is None)

    full_report = hat.counterexample_verify()
    elapsed = time.monotonic() - start
    report(1, "counterexample regression",
           ok_a and ok_b and ok_c and ok_d and full_report["ok"]
           and elapsed < 120.0,
           f"9 groups searched, {elapsed:.1f}s")


def test_criterion_2_formula_oracle_equivalence():
    rng = random.Random(2)
    specs = [g for g in small_groups_catalog(8)]
    fibres = [cyclic(2), cyclic(3), cyclic(4)]
    mismatches = 0
    total = 500
    for i in range(total):
        C = fibres[i % 3]
        G, H, K = (specs[rng.randrange(len(specs))] for _ in range(3))
        X = sampling.random_transitive_class(rng, G, H, C)
        Y = sampling.random_transitive_class(rng, H, K, C)
        left = compose(element_of(X), element_of(Y))
        right = fibred.compose_oracle(element_of(X), element_of(Y))
        if left != right:
            mismatches += 1
    report(2, "formula/oracle equivalence",
           mismatches == 0, f"{total} pairs, {mismatches} mismatches")


def test_criterion_3_category_axioms():
    failures = []
    fibres = [cyclic(2), cyclic(4)]
    one = cyclic(1)
    for C in fibres:
        for G in small_groups_catalog(8):
            ident = identity_element(G, C)
            for X in transitive_basis(G, G, C):
                e = element_of(X)
                if compose(ident, e) != e or compose(e, ident) != e:
                    failures.append((G.name, C.name, X.raw))
            id1 = identity_element(one, C)
            for sc in subcharacter_classes(G, C):
                e = element_of(sc)
                if compose(ident, e) != e or compose(e, id1) != e:
                    failures.append((G.name, C.name, sc.raw))
    rng = random.Random(3)
    pool = small_groups_catalog(6)
    n_triples = 100
    for _ in range(n_triples):
        C = fibres[rng.randrange(2)]
        G, H, K, L = (pool[rng.randrange(len(pool))] for _ in range(4))
        x = element_of(sampling.random_transitive_class(rng, G, H, C))
        y = element_of(sampling.random_transitive_class(rng, H, K, C))
        z = element_of(sampling.random_transitive_class(rng, K, L, C))
        if compose(compose(x, y), z) != compose(x, compose(y, z)):
            failures.append(("assoc", G.name, H.name, K.name, L.name))
    report(3, "category axioms", not failures,
           f"identity laws on all basis classes <= order 8, "
           f"{n_triples} associativity triples; {len(failures)} failures")


def test_criterion_4_idempotents_from_full_projections():
    rng = random.Random(4)
    pool = small_groups_catalog(8)
    fibres = [cyclic(2), cyclic(3), cyclic(4)]
    bad = 0
    total = 100
    for i in range(total):
        C = fibres[i % 3]
        G = pool[rng.randrange(len(pool))]
        H = pool[rng.randrange(len(pool))]
        X = setlevel.random_full_projection_class(rng, G, H, C)
        W = compose(element_of(X), element_of(opposite(X)))
        if not is_idempotent(W):
            bad += 1
    report(4, "idempotents from full-projection classes",
           bad == 0, f"{total} samples, {bad} failures")


def test_criterion_5_factorizations_recompose():
    c2 = cyclic(2)
    pool = small_groups_catalog(8)
    checked = 0
    failures = 0
    for i, G in enumerate(pool):
        for H in pool[i:]:
            for X in transitive_basis(G, H, c2):
                f = bouc_factorize(X)
                e = element_of(X)
                left = compose(element_of(f.left_elementary),
                               element_of(f.beta1))
                right = compose(element_of(f.beta2),
                                element_of(f.right_elementary))
                checked += 1
                if left != e or right != e:
                    failures += 1
    report(5, "factorizations recompose", failures == 0,
           f"{checked} classes over unordered pairs of groups <= order 8, "
           f"{failures} failures")


def test_criterion_6_prime_fibre_structure():
    failures = []
    spot = {}
    for gspec in ("C2", "C3", "C4", "C2xC2", "S3", "Q8", "D8"):
        G = group_from_spec(gspec)
        for C in (cyclic(2), cyclic(3)):
            dim, _ = hat.hat_dimension(G, C)
            n_hom = len(homomorphisms(G, C))
            n_out = automorphisms(G).out_order
            has_y = center(G).order % C.order == 0
            n_y = len(hat._fibre_embeddings(G, C)) if has_y else 0
            expected = n_hom * n_out + n_out * n_y
            if dim != expected:
                failures.append((gspec, C.name, dim, expected))
            rep = hat.verify_hat_vs_quotient(G, C)
            if not rep["ok"]:
                failures.append((gspec, C.name, rep["mismatches"][:2]))
            if C.order == 2:
                spot[gspec] = dim
    spot_ok = (spot["C4"] == 6 and spot["S3"] == 2 and spot["Q8"] == 30)
    report(6, "prime-fibre structure", not failures and spot_ok,
           "dimensions match census and all generator products cross-check; "
           f"spot values {spot['C4']}/{spot['S3']}/{spot['Q8']}")


def test_criterion_7_no_shared_minimal_groups_for_prime_fibre():
    c2 = cyclic(2)
    q8 = group_from_spec("Q8")
    d8 = group_from_spec("D8")
    basis = transitive_basis(q8, d8, c2)
    survivors = 0
    for X in basis:
        W = compose(element_of(X), element_of(opposite(X)))
        if any(hat.is_in_ideal(cls) is None for cls in W.terms):
            survivors += 1
    report(7, "no surviving idempotent across Q8/D8 with prime fibre",
           survivors == 0,
           f"{len(basis)} classes, {survivors} survivors")


def _random_fibred_action(rng, G, C):
    classes = subcharacter_classes(G, C)
    picks = [classes[rng.randrange(len(classes))]
             for _ in range(rng.randrange(1, 3))]
    return block_sum([to_monomial_set(sc).action for sc in picks])


def _random_biset_action(rng, A, B):
    emb = product_embedding(A, B)
    subs = subgroups(emb.ambient)
    L = subs[rng.randrange(len(subs))]
    return emb, coset_action(emb.ambient, L.elements)


def test_criterion_8_green_functor_identities():
    rng = random.Random(8)
    pool = small_groups_catalog(4)
    fibres = [cyclic(2), cyclic(3)]
    failures = 0
    total = 50
    for i in range(total):
        C = fibres[i % 2]
        L, K, G, H = (pool[rng.randrange(len(pool))] for _ in range(4))
        emb_gc = product_embedding(G, C)
        emb_hc = product_embedding(H, C)

        # external product against gluing
        emb_lg, Z = _random_biset_action(rng, L, G)
        emb_kh, X = _random_biset_action(rng, K, H)
        T = _random_fibred_action(rng, G, C)
        Y = _random_fibred_action(rng, H, C)
        emb_lc, ZT = mackey_glue(emb_lg, Z, emb_gc, T)
        A1, _ = c_free_part(emb_lc, ZT)
        emb_kc, XY = mackey_glue(emb_kh, X, emb_hc, Y)
        A2, _ = c_free_part(emb_kc, XY)
        _, lhs = tensor_sets(emb_lc, A1, emb_kc, A2)

        emb_zx, ZX = interleaved_product_biset(emb_lg, Z, emb_kh, X)
        emb_ty, TY = tensor_sets(emb_gc, T, emb_hc, Y)
        emb_out, glued = mackey_glue(emb_zx, ZX, emb_ty, TY)
        rhs, _ = c_free_part(emb_out, glued)
        if equivariant_isomorphism(lhs, rhs) is None:
            failures += 1

        # free part absorbs through gluing
        emb_gc2 = product_embedding(G, C)
        subs = subgroups(emb_gc2.ambient)
        W = block_sum([
            coset_action(emb_gc2.ambient,
                         subs[rng.randrange(len(subs))].elements)
            for _ in range(rng.randrange(1, 3))])
        Wf, _ = c_free_part(emb_gc2, W)
        _, glued_free = mackey_glue(emb_lg, Z, emb_gc2, Wf)
        side1, _ = c_free_part(product_embedding(L, C), glued_free)
        _, glued_all = mackey_glue(emb_lg, Z, emb_gc2, W)
        side2, _ = c_free_part(product_embedding(L, C), glued_all)
        if equivariant_isomorphism(side1, side2) is None:
            failures += 1
    report(8, "green-functor identities on explicit sets",
           failures == 0, f"{total} seeded instances, {failures} failures")
