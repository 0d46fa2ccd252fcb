"""The orbit oracle glues from generating sets of the acting groups; the
reference glues by union-find over the moves of every element.  Both must
give the same root of every point and the same numbering of the roots."""

import random

import pytest

from fibredburnside import fibred, monomial, sampling
from fibredburnside.groups import (
    closure_mask,
    group_from_spec,
    product_embedding,
    small_groups_catalog,
)

from helpers import (
    ref_mackey_moves,
    ref_oracle_moves,
    ref_orbit_partition,
    ref_tensor_moves,
)


@pytest.fixture()
def partitions(monkeypatch):
    """Every call of ``monomial._orbit_partition``, with its result."""
    calls = []
    real = monomial._orbit_partition

    def recording(n_points, moves):
        out = real(n_points, moves)
        calls.append((n_points, moves, out))
        return out

    monkeypatch.setattr(monomial, "_orbit_partition", recording)
    return calls


def _full(G):
    return (1 << G.order) - 1


def _assert_reference_partition(call, all_moves):
    n_points, _, (find_rep, roots) = call
    ref_rep, ref_roots = ref_orbit_partition(n_points, all_moves)
    assert find_rep == ref_rep
    assert roots == ref_roots
    assert list(roots.items()) == list(ref_roots.items())


def test_orbit_partition_roots_are_least_points_in_ascending_order():
    # two 3-cycles and a fixed point, generated by one of the cycles
    move = [2, 0, 1, 3, 6, 4, 5]
    find_rep, roots = monomial._orbit_partition(7, [move])
    assert find_rep == [0, 0, 0, 3, 4, 4, 4]
    assert list(roots.items()) == [(0, 0), (3, 1), (4, 2)]
    assert monomial._orbit_partition(3, []) == ([0, 1, 2],
                                                 {0: 0, 1: 1, 2: 2})


@pytest.mark.parametrize("fibre", ["C2", "C3", "C4"])
def test_oracle_gluing_matches_all_element_reference(partitions, fibre):
    C = group_from_spec(fibre)
    pool = small_groups_catalog(8)
    rng = random.Random(20 + C.order)
    for H in pool:
        G = pool[rng.randrange(len(pool))]
        K = pool[rng.randrange(len(pool))]
        X = sampling.random_transitive_class(rng, G, H, C)
        Y = sampling.random_transitive_class(rng, H, K, C)
        partitions.clear()
        fibred._compose_oracle_transitive(X, Y)
        (call,) = partitions
        ref = ref_oracle_moves(X, Y)
        gens = ([(h, 0) for h in H.generators()]
                + [(0, c) for c in C.generators()])
        # the moves glued are those of (h, 1) and (1, c) for generators
        # h and c, and these elements generate all of H x C
        assert call[1] == [ref[g] for g in gens]
        emb = product_embedding(H, C)
        assert (closure_mask(emb.ambient, [emb.encode(*g) for g in gens])
                == _full(emb.ambient))
        _assert_reference_partition(call, list(ref.values()))


def test_mackey_and_tensor_gluing_match_reference_on_criterion_8(
        partitions, monkeypatch):
    import test_acceptance

    glued = []

    def checked(name, glue, ref_moves):
        def run(emb1, S, emb2, T):
            partitions.clear()
            out = glue(emb1, S, emb2, T)
            (call,) = partitions
            acting = emb1.factors[1]
            ref = ref_moves(emb1, S, emb2, T)
            gens = acting.generators()
            assert call[1] == [ref[g] for g in gens]
            assert closure_mask(acting, gens) == _full(acting)
            _assert_reference_partition(call, list(ref.values()))
            glued.append(name)
            return out
        return run

    monkeypatch.setattr(test_acceptance, "mackey_glue", checked(
        "mackey", monomial.mackey_glue, ref_mackey_moves))
    monkeypatch.setattr(test_acceptance, "tensor_sets", checked(
        "tensor", monomial.tensor_sets, ref_tensor_moves))
    test_acceptance.test_criterion_8_green_functor_identities()
    # five gluings over the middle group and two tensors per instance
    assert glued.count("mackey") == 250
    assert glued.count("tensor") == 100


def test_oracle_runs_without_the_formula_path(monkeypatch):
    """The orbit oracle uses nothing of the double-coset formula: with
    ``_compose_raw`` and ``double_coset_representatives`` made to raise
    in every module that binds them, it still gives the formula's
    results."""
    from fibredburnside import goursat, groups, hat

    rng = random.Random(8)
    pool = small_groups_catalog(8)
    fibres = [group_from_spec(s) for s in ("C2", "C3", "C4")]
    pairs = []
    for _ in range(40):
        C = fibres[rng.randrange(len(fibres))]
        G, H, K = (pool[rng.randrange(len(pool))] for _ in range(3))
        X = sampling.random_transitive_class(rng, G, H, C)
        Y = sampling.random_transitive_class(rng, H, K, C)
        pairs.append((fibred.element_of(X), fibred.element_of(Y, 2)))

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached the formula path")

    for module in (groups, goursat, monomial, fibred, hat, sampling):
        for name in ("_compose_raw", "double_coset_representatives"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    results = [fibred.compose_oracle(X, Y) for X, Y in pairs]
    monkeypatch.undo()
    assert results == [fibred.compose(X, Y) for X, Y in pairs]
