"""The reduced ideal sweep (maximal intermediate groups, orbit
representatives of pairs, closure under automorphisms) against the
unreduced sweep kept in ``helpers.ref_ideal_sweep``.

``python tests/test_ideal_sweep.py`` runs the same comparison over every
catalog group of order <= 8 with fibres C2, C3 and C4 (a few minutes).
"""

import pytest

from fibredburnside import hat
from fibredburnside.fibred import _class_from_raw, transitive_basis
from fibredburnside.groups import (
    FiniteGroup, cyclic, group_from_spec, small_groups_catalog)

from helpers import ref_ideal_sweep

CASES = ([(G.name, "C2") for G in small_groups_catalog(8)
          if G.name != "C2xC2xC2"]
         + [("Q8", "C4"), ("D8", "C4"), ("C2xC2", "C3"), ("S3", "C3")])


def compare_with_reference(G, C, catalog_bound=15):
    """Assert the three properties that make the reduced sweep exact."""
    kats = hat._catalog_below(G.order, catalog_bound)
    swept = hat._maximal_below(G, catalog_bound)
    # a swept K gives exactly the unreduced key set
    for K in swept:
        reduced = set(hat._ideal_sweep(G, C, K))
        assert reduced == set(ref_ideal_sweep(G, C, K)), \
            f"{G.name}/{C.name}: key sets differ through {K.name}"
    # a skipped K gives a subset of the keys of every K' it embeds in
    for K in kats:
        if K in swept:
            continue
        larger = [L for L in swept if hat._embeds(K, L)]
        assert larger, f"{K.name} is skipped but embeds in no swept group"
        keys = set(ref_ideal_sweep(G, C, K))
        for L in larger:
            assert keys <= set(hat._ideal_sweep(G, C, L)), \
                f"{G.name}/{C.name}: S({K.name}) not inside S({L.name})"
    # every witness recomposes to its class
    for X in transitive_basis(G, G, C):
        w = hat.is_in_ideal(X, catalog_bound)
        if w is not None:
            assert hat._witness_matches(X, w), \
                f"{G.name}/{C.name}: witness through {w.K.name} fails"


@pytest.mark.parametrize("g_spec,c_spec", CASES)
def test_reduced_sweep_matches_reference(g_spec, c_spec):
    compare_with_reference(group_from_spec(g_spec), group_from_spec(c_spec))


def test_maximal_groups_below_order_8(q8):
    assert [K.name for K in hat._maximal_below(q8, 15)] == \
        ["C4", "C2xC2", "C5", "C6", "S3", "C7"]
    assert [K.name for K in hat._maximal_below(q8, 7)] == \
        ["C4", "C2xC2", "C5", "C6", "S3", "C7"]


def test_every_sweep_witness_recomposes(s3, c3):
    for K in hat._maximal_below(s3, 15):
        sweep = hat._ideal_sweep(s3, c3, K)
        for (mask, delta), entry in sweep.items():
            X = _class_from_raw(s3, s3, c3, mask, delta, canonical=True)
            assert hat._witness_matches(X, hat._sweep_witness(K, entry))


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
        hat.is_in_ideal(X, 7)
    maximal = hat._maximal_below(G, 7)
    assert calls
    assert all(g is G and c is C and K in maximal for g, c, K in calls)


if __name__ == "__main__":
    import time
    for G in small_groups_catalog(8):
        for c_spec in ("C2", "C3", "C4"):
            start = time.monotonic()
            compare_with_reference(G, group_from_spec(c_spec))
            print(f"{G.name} {c_spec}: ok ({time.monotonic() - start:.1f}s)",
                  flush=True)
