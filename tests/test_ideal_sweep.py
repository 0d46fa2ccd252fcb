"""The reduced ideal sweep (maximal intermediate groups, orbit
representatives of pairs, closure under automorphisms, factors built
from Goursat data) against the unreduced sweep kept in
``helpers.ref_ideal_sweep`` and against every kept pair composed by the
orbit oracle, its orbit walks against ``helpers.ref_orbits``, its
factors against the filtered full-side classes kept in
``helpers.ref_kept_keys``, and the candidates and survivors of
``hat_dimension`` against the whole basis over G x G decided class by
class (``helpers.ref_hat_candidates``, ``ref_hat_survivors``), and the
constructed witnesses of ``hat._reduction_witness`` against the old path
that Bouc-factorizes every class (``helpers.ref_reduction_witness``).

``python tests/test_ideal_sweep.py`` runs the same comparisons over every
catalog group of order <= 8 with fibres C2, C3 and C4 (a few minutes),
and the factor, candidate and survivor comparisons also with fibres
C2xC2 and C6, which are not cyclic of prime order; C2xC2xC2, which the
Tier-1 candidate test leaves out, is compared with C2.  It also holds the
constructed witnesses to the reference on every class over G x G for
every catalog group of order <= 8 with fibres C2, C3 and C4, holds the
orbit walks of ``hat._orbits`` to ``helpers.ref_orbits``, which twists
by every pair of automorphisms, over the same range, and holds the sweeps
of C4xC2 with C4 to every kept pair composed by the orbit oracle.
"""

import functools

import pytest

from fibredburnside import hat
from fibredburnside.fibred import (
    TransitiveFibredBiset, _canonical_raw, _compose_raw, compose_oracle,
    element_of, opposite, transitive_basis)
from fibredburnside.groups import (
    FiniteGroup, automorphisms, cyclic, group_from_spec, mask_to_elements,
    product_embedding, small_groups_catalog)

from helpers import (
    forbid_formula_path, ref_full_side, ref_hat_candidates,
    ref_hat_survivors, ref_ideal_sweep, ref_kept_keys, ref_orbits,
    ref_raw_reduced_kernel, ref_reduced_kernel, ref_reduction_witness,
    ref_twist)

CASES = ([(G.name, "C2") for G in small_groups_catalog(8)
          if G.name != "C2xC2xC2"]
         + [("Q8", "C4"), ("D8", "C4"), ("C2xC2", "C3"), ("S3", "C3")])


def compare_with_reference(G, C):
    """Assert the three properties that make the reduced sweep exact on
    the keys ``_ideal_decision`` consults: those of the classes for which
    ``_reduction_witness`` finds no constructed witness."""
    kats = hat._catalog_below(G.order)
    swept = hat._maximal_below(G)

    @functools.cache
    def consulted(raw):
        X = TransitiveFibredBiset(G, G, C, *raw)
        return hat._reduction_witness(X) is None

    # a swept K gives a subset of the unreduced key set, and all of it on
    # the consulted keys
    for K in swept:
        reduced = set(hat._ideal_sweep(G, C, K))
        full = set(ref_ideal_sweep(G, C, K))
        assert reduced <= full, \
            f"{G.name}/{C.name}: keys through {K.name} outside the reference"
        assert ({k for k in reduced if consulted(k)}
                == {k for k in full if consulted(k)}), \
            f"{G.name}/{C.name}: consulted keys differ through {K.name}"
    # the consulted keys of a skipped K are keys of every K' it embeds in
    for K in kats:
        if K in swept:
            continue
        larger = [L for L in swept if hat._embeds(K, L)]
        assert larger, f"{K.name} is skipped but embeds in no swept group"
        keys = {k for k in ref_ideal_sweep(G, C, K) if consulted(k)}
        for L in larger:
            assert keys <= set(hat._ideal_sweep(G, C, L)), \
                f"{G.name}/{C.name}: S({K.name}) not inside S({L.name})"
    # every witness recomposes to its class
    for X in transitive_basis(G, G, C):
        w = hat.is_in_ideal(X)
        if w is not None:
            assert hat._witness_matches(X, w), \
                f"{G.name}/{C.name}: witness through {w.K.name} fails"


def compare_kept_factors(G, C):
    """Assert that the factors of every sweep over G, through each maximal
    K, are the filtered full-side classes, as ordered key lists."""
    for K in hat._maximal_below(G):
        lefts = hat._kept_factors(G, K, C)
        rights = sorted(map(opposite, lefts), key=lambda b: b.raw)
        assert ([a.raw for a in lefts], [b.raw for b in rights]) == \
            ref_kept_keys(G, K, C), f"{G.name}/{C.name} through {K.name}"


def compare_hat_candidates(G, C):
    """Assert that ``hat_dimension`` decides exactly the classes that get
    no constructed witness, and finds the survivors of the whole basis,
    both as ordered key lists."""
    assert [X.raw for X in hat._candidates(G, C)] == \
        ref_hat_candidates(G, C), f"{G.name}/{C.name}: candidates"
    dim, survivors = hat.hat_dimension(G, C)
    assert dim == len(survivors)
    assert [X.raw for X in survivors] == \
        [X.raw for X in ref_hat_survivors(G, C)], \
        f"{G.name}/{C.name}: survivors"


def check_words(emb, orbits):
    """Assert that each key of an ``hat._orbits`` result is its root
    twisted by its two words, and that the words are automorphisms."""
    auts = [set(automorphisms(f).all) for f in emb.factors]
    for key, (root, sigma, tau) in orbits.items():
        assert sigma in auts[0] and tau in auts[1]
        assert ref_twist(emb, root, sigma, tau) == key


def compare_orbits(G, C) -> int:
    """Hold ``hat._orbits`` to ``ref_orbits`` on the walks of every sweep
    over G: the orbit of each left and right representative, whose first
    class in key order is its root, and the closure of the summands of
    the representative pairs, whose every key has a seed of its orbit as
    root and which gives the sweep's keys in its order.  Return the
    number of keys walked."""
    gens = hat._aut_generators(G)
    emb_gg = product_embedding(G, G)
    walked = 0
    for K in hat._maximal_below(G):
        lefts = hat._kept_factors(G, K, C)
        rights = sorted(map(opposite, lefts), key=lambda b: b.raw)
        reps = []
        for classes, emb, moves in (
                (lefts, product_embedding(G, K), [(0, s) for s in gens]
                 + [(1, s) for s in hat._aut_generators(K)]),
                (rights, product_embedding(K, G), [(1, s) for s in gens])):
            keys = [cls.raw for cls in classes]
            ref = ref_orbits(emb, keys, {side for side, _ in moves})
            firsts = {}
            for key in keys:
                firsts.setdefault(ref[key], key)
            roots = []
            reached = {}
            for cls in classes:
                if cls.raw in reached:
                    continue
                orbit = hat._orbits(emb, [cls.raw], moves)
                assert set(orbit) == ref[cls.raw]
                assert {root for root, _, _ in orbit.values()} == {cls.raw}
                check_words(emb, orbit)
                reached.update(orbit)
                roots.append(cls)
                walked += len(orbit)
            assert [cls.raw for cls in roots] == list(firsts.values()), \
                f"{G.name}/{C.name} through {K.name}"
            reps.append(roots)
        seeds = {}
        for a in reps[0]:
            for b in reps[1]:
                for _, mask, delta in _compose_raw(a, b):
                    seeds.setdefault(_canonical_raw(emb_gg.ambient, mask,
                                                    delta))
        closure = hat._orbits(emb_gg, list(seeds),
                              [(side, s) for side in (0, 1) for s in gens])
        ref = ref_orbits(emb_gg, list(seeds), {0, 1})
        assert set(closure) == set().union(*ref.values())
        assert all(closure[seed][0] == seed for seed in seeds)
        assert all(root in seeds and key in ref[root]
                   for key, (root, _, _) in closure.items())
        check_words(emb_gg, closure)
        assert list(closure) == list(hat._ideal_sweep(G, C, K))
        walked += len(closure)
    return walked


def compare_sweeps_with_oracle(G, C, monkeypatch):
    """Assert that the summand keys of every kept left composed with
    every kept right through the orbit oracle, with the formula path made
    to raise, are the sweep's keys, through each maximal K."""
    sweeps = [(set(hat._ideal_sweep(G, C, K)), hat._kept_factors(G, K, C))
              for K in hat._maximal_below(G)]
    forbid_formula_path(monkeypatch)
    for keys, lefts in sweeps:
        rights = [element_of(opposite(a)) for a in lefts]
        assert {cls.raw for a in lefts for b in rights
                for cls in compose_oracle(element_of(a), b).terms} == keys, \
            f"{G.name}/{C.name}"


def compare_reduction_witnesses(G, C) -> int:
    """Assert that every class over G x G gets the reference's constructed
    witness, or none, compared as JSON; return the number of classes."""
    classes = transitive_basis(G, G, C)
    for X in classes:
        got = hat._reduction_witness(X)
        ref = ref_reduction_witness(X)
        assert (got and got.to_json()) == (ref and ref.to_json()), \
            f"{G.name}/{C.name}: {X.describe()}"
    return len(classes)


@pytest.mark.parametrize("g_spec,c_spec", CASES)
def test_reduced_sweep_matches_reference(g_spec, c_spec):
    compare_with_reference(group_from_spec(g_spec), group_from_spec(c_spec))


@pytest.mark.parametrize("g_spec", [G.name for G in small_groups_catalog(8)])
def test_kept_factors_match_reference(g_spec):
    for c_spec in ("C2", "C3", "C4"):
        compare_kept_factors(group_from_spec(g_spec), group_from_spec(c_spec))


@pytest.mark.parametrize("c_spec", ["C2", "C3", "C4"])
@pytest.mark.parametrize("g_spec", [G.name for G in small_groups_catalog(8)
                                    if G.name != "C2xC2xC2"])
def test_hat_candidates_match_reference(g_spec, c_spec):
    compare_hat_candidates(group_from_spec(g_spec), group_from_spec(c_spec))


ORBIT_CASES = ([(G.name, c_spec) for G in small_groups_catalog(6)
                for c_spec in ("C2", "C3", "C4")] + [("C4xC2", "C2")])


@pytest.mark.parametrize("g_spec,c_spec", ORBIT_CASES)
def test_orbits_match_reference(g_spec, c_spec):
    compare_orbits(group_from_spec(g_spec), group_from_spec(c_spec))


@pytest.mark.parametrize("g_spec,c_spec", [
    ("C2xC2", "C2"), ("C6", "C2"), ("C4xC2", "C2"), ("C4", "C4"),
    ("C2xC2", "C4")])
def test_sweeps_match_the_orbit_oracle(g_spec, c_spec, monkeypatch):
    compare_sweeps_with_oracle(group_from_spec(g_spec),
                               group_from_spec(c_spec), monkeypatch)


def test_reduction_witnesses_match_reference():
    assert sum(compare_reduction_witnesses(G, group_from_spec(c_spec))
               for G in small_groups_catalog(6)
               for c_spec in ("C2", "C3", "C4")) == 1266


def test_maximal_groups_below_order_8(q8):
    assert [K.name for K in hat._maximal_below(q8)] == \
        ["C4", "C2xC2", "C5", "C6", "S3", "C7"]


def test_every_sweep_witness_recomposes():
    # sweep sizes: the (S3, C3) sweep is empty, since no factor through a
    # smaller group has a trivial outer reduced kernel
    sizes = {("S3", "C3"): 0, ("C2xC2", "C2"): 18, ("C6", "C2"): 2,
             ("C4xC2", "C2"): 16}
    checked = 0
    for (g_spec, c_spec), size in sizes.items():
        G, C = group_from_spec(g_spec), group_from_spec(c_spec)
        keys = 0
        for K in hat._maximal_below(G):
            for (mask, delta), entry in hat._ideal_sweep(G, C, K).items():
                X = TransitiveFibredBiset(G, G, C, mask, delta)
                assert hat._witness_matches(X, hat._sweep_witness(K, entry))
                keys += 1
        assert keys == size, f"{g_spec}/{c_spec}: {keys} sweep keys"
        checked += keys
    assert checked


@pytest.mark.parametrize("order", range(2, 7))
def test_nontrivial_outer_kernel_stays_in_every_summand(order):
    """k1(ker nu) of a = (V, nu) lies in k1(ker delta) of every summand
    (D, delta) of a o b, and k2(ker mu) of b = (U, mu) in k2(ker delta):
    the reason the sweep may drop such factors."""
    pairs = 0
    for G in small_groups_catalog(order):
        if G.order != order:
            continue
        emb_gg = product_embedding(G, G)
        for K in hat._catalog_below(G.order):
            emb_gk = product_embedding(G, K)
            emb_kg = product_embedding(K, G)
            for c_spec in ("C2", "C3", "C4"):
                C = group_from_spec(c_spec)
                lefts = [(a, set(ref_reduced_kernel(emb_gk, a, 0)))
                         for a in ref_full_side(emb_gk, C, 0)]
                rights = [(b, set(ref_reduced_kernel(emb_kg, b, 1)))
                          for b in ref_full_side(emb_kg, C, 1)]
                for a, ka in lefts:
                    for b, kb in rights:
                        pairs += 1
                        for _, mask, delta in _compose_raw(a, b):
                            elements = mask_to_elements(mask)
                            assert ka <= set(ref_raw_reduced_kernel(
                                emb_gg, elements, delta, 0))
                            assert kb <= set(ref_raw_reduced_kernel(
                                emb_gg, elements, delta, 1))
    assert pairs


def test_sweep_caches_hold_the_fibre_object(monkeypatch):
    # a fresh group, so that no decision about it is cached yet
    G = FiniteGroup(cyclic(4).table)
    C = cyclic(3)
    calls = []
    sweep = hat._ideal_sweep

    def recording(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(hat, "_ideal_sweep", recording)
    for X in transitive_basis(G, G, C):
        hat.is_in_ideal(X)
    maximal = hat._maximal_below(G)
    assert calls
    assert all(g is G and c is C and K in maximal for g, c, K in calls)


if __name__ == "__main__":
    import time
    start = time.monotonic()
    classes = sum(compare_reduction_witnesses(G, group_from_spec(c_spec))
                  for G in small_groups_catalog(8)
                  for c_spec in ("C2", "C3", "C4"))
    print(f"constructed witnesses of {classes} classes: ok "
          f"({time.monotonic() - start:.1f}s)", flush=True)
    for G in small_groups_catalog(8):
        for c_spec in ("C2", "C3", "C4", "C2xC2", "C6"):
            start = time.monotonic()
            C = group_from_spec(c_spec)
            compare_kept_factors(G, C)
            if c_spec in ("C2", "C3", "C4"):
                compare_with_reference(G, C)
                compare_orbits(G, C)
            # the Tier-1 test covers the rest of the candidate comparison
            if ((c_spec in ("C2xC2", "C6") and G.name != "C2xC2xC2")
                    or (G.name, c_spec) == ("C2xC2xC2", "C2")):
                compare_hat_candidates(G, C)
            print(f"{G.name} {c_spec}: ok ({time.monotonic() - start:.1f}s)",
                  flush=True)
    # 11,328 pairs composed by the orbit oracle, 456 sweep keys
    start = time.monotonic()
    with pytest.MonkeyPatch.context() as patch:
        compare_sweeps_with_oracle(group_from_spec("C4xC2"),
                                   group_from_spec("C4"), patch)
    print(f"C4xC2 C4 sweeps by the orbit oracle: ok "
          f"({time.monotonic() - start:.1f}s)", flush=True)
