"""The orbit oracle glues from generating sets of the acting groups; the
reference glues by union-find over the moves of every element.  Both must
give the same root of every point and the same numbering of the roots.
The oracle glues only the base pairs (t |C|, j) of its pair space, each
pair standing for its fibre orbit through the normal form
(t |C| + c, j) ~ (t |C|, c.j); the reference glues every pair.
The oracle builds rows for generators only and reads its stabilizers by
evaluating one point; ``ref_compose_oracle_transitive`` builds every
row and reads them off full tables, and both give the same elements.
The coset models multiply in the tables of the two factors, and
``ref_coset_model`` builds the same model on the full table of their
product.

Run as a script, it holds every product ambient that the ``oracle``
benchmark design builds for seeds 1-3 (G x H, H x K and G x K, of orders
up to 64; no product with the fibre C is built) to ``ref_product_table``,
as products are built without validation; and the comparison with the
oracle's reference covers all pairs of that design for seeds 1-3, and
fibres C2xC2, C6, C8, C2xC4 and C2xC2xC2 over every catalog triple of
order <= 4:

    PYTHONPATH=src:tests python tests/test_oracle_gluing.py
"""

import os
import random
import subprocess
import sys
import textwrap

import pytest

from fibredburnside import fibred, monomial, sampling
from fibredburnside.groups import (
    GroupError,
    closure_mask,
    group_from_spec,
    product_embedding,
    small_groups_catalog,
)

from helpers import (
    forbid_formula_path,
    ref_compose_oracle_transitive,
    ref_coset_model,
    ref_mackey_moves,
    ref_oracle_moves,
    ref_oracle_result_rows,
    ref_orbit_partition,
    ref_product_table,
    ref_tensor_moves,
)
import setlevel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the fibres of order 8, where gluing base pairs only saves the most
LARGE_FIBRES = ("C8", "C2xC4", "C2xC2xC2")


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
    nc = C.order
    pool = small_groups_catalog(8)
    rng = random.Random(20 + nc)
    for H in pool:
        G = pool[rng.randrange(len(pool))]
        K = pool[rng.randrange(len(pool))]
        X = sampling.random_transitive_class(rng, G, H, C)
        Y = sampling.random_transitive_class(rng, H, K, C)
        partitions.clear()
        fibred._compose_oracle_transitive(X, Y)
        # one partition glues the pairs, the other finds the result orbits
        call, result_call = partitions
        ref = ref_oracle_moves(X, Y)
        T2 = setlevel.to_monomial_set(Y)
        n2, n_full = T2.size, len(ref[0, 0])
        n_base = n_full // nc
        assert call[0] == n_base
        # the fibre's action on Y, which carries a pair to its normal form
        shifts = [T2.action.table[T2.embedding.encode(0, c)]
                  for c in range(nc)]

        def full(q):
            # base pair (t, j) is the pair (t |C|, j) of the reference
            return q // n2 * nc * n2 + q % n2

        def normal(x):
            p, j = divmod(x, n2)
            return p // nc * n2 + shifts[p % nc][j]

        ref_rep, ref_roots = ref_orbit_partition(n_full, list(ref.values()))
        # every pair shares a reference orbit with its normal form
        assert all(ref_rep[x] == ref_rep[full(normal(x))]
                   for x in range(n_full))
        # the moves glued are those of (h, 1) for generators h, as normal
        # forms of base pairs; with C they generate all of H x C
        h_gens = [(h, 0) for h in H.generators()]
        assert call[1] == [[normal(ref[g][full(q)]) for q in range(n_base)]
                           for g in h_gens]
        emb = product_embedding(H, C)
        gens = h_gens + [(0, c) for c in C.generators()]
        assert (closure_mask(emb.ambient, [emb.encode(*g) for g in gens])
                == _full(emb.ambient))
        # the partition of the base pairs is the reference's restricted to
        # them, roots and their numbering included
        find_rep, roots = call[2]
        assert [full(r) for r in find_rep] == [ref_rep[full(q)]
                                               for q in range(n_base)]
        assert [(full(r), k) for r, k in roots.items()] == list(
            ref_roots.items())
        # the result moves are the reference rows of (g, 1, 1), (1, k, 1)
        # and (1, 1, c) for generators g, k and c, which generate
        # G x K x C, and they give the orbits of all the reference rows
        emb_res, ref_rows = ref_oracle_result_rows(X, Y)
        emb_gk = product_embedding(G, K)
        res_gens = ([emb_res.encode(emb_gk.encode(g, 0), 0)
                     for g in G.generators()]
                    + [emb_res.encode(emb_gk.encode(0, k), 0)
                       for k in K.generators()]
                    + [emb_res.encode(0, c) for c in C.generators()])
        assert result_call[1] == [ref_rows[x] for x in res_gens]
        assert (closure_mask(emb_res.ambient, res_gens)
                == _full(emb_res.ambient))
        _assert_reference_partition(result_call, ref_rows)


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
        "mackey", setlevel.mackey_glue, ref_mackey_moves))
    monkeypatch.setattr(test_acceptance, "tensor_sets", checked(
        "tensor", setlevel.tensor_sets, ref_tensor_moves))
    test_acceptance.test_criterion_8_green_functor_identities()
    # five gluings over the middle group and two tensors per instance
    assert glued.count("mackey") == 250
    assert glued.count("tensor") == 100


def test_oracle_runs_without_the_formula_path(monkeypatch):
    """The orbit oracle uses nothing of the double-coset formula: with
    ``_compose_raw``, its profiles, its double-coset memo and
    ``double_coset_representatives`` made to raise in every module that
    binds them, it still gives the formula's results."""
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

    forbid_formula_path(monkeypatch)
    results = [fibred.compose_oracle(X, Y) for X, Y in pairs]
    monkeypatch.undo()
    assert results == [fibred.compose(X, Y) for X, Y in pairs]


def _random_pairs(seed, fibres, count, max_order=8):
    """Seeded composable pairs of transitive classes over catalog groups."""
    rng = random.Random(seed)
    pool = small_groups_catalog(max_order)
    for _ in range(count):
        C = group_from_spec(fibres[rng.randrange(len(fibres))])
        G, H, K = (pool[rng.randrange(len(pool))] for _ in range(3))
        yield (sampling.random_transitive_class(rng, G, H, C),
               sampling.random_transitive_class(rng, H, K, C))


def _oracle_design(seed):
    """The groups G, H, K and C of each pair of the ``oracle`` benchmark
    workload, with the draws of its two classes."""
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    by_name = {g.name: g for g in small_groups_catalog(8)}
    for spec in workloads.draw_oracle_inputs(seed):
        G, H, K = (by_name[n] for n in spec["groups"])
        C = group_from_spec(spec["fibre"])
        yield G, H, K, C, workloads._Drawn(spec["draws"])


def _oracle_design_pairs(seed):
    """The composable pairs of the ``oracle`` benchmark workload."""
    for G, H, K, C, rng in _oracle_design(seed):
        yield (sampling.random_transitive_class(rng, G, H, C),
               sampling.random_transitive_class(rng, H, K, C))


def _oracle_design_products(seeds):
    """The factor tuples of the product ambients that composing the pairs
    of the ``oracle`` workload builds, once each: G x H, H x K and
    G x K.  The coset models read the tables of these and of C, so no
    product with C is built."""
    found = {}
    for seed in seeds:
        for G, H, K, _, _ in _oracle_design(seed):
            for left, right in ((G, H), (H, K), (G, K)):
                found[left, right] = None
    return list(found)


def _triple_pairs(seed, fibre, max_order=4):
    """One seeded pair for every catalog triple (G, H, K)."""
    rng = random.Random(seed)
    C = group_from_spec(fibre)
    pool = small_groups_catalog(max_order)
    for G in pool:
        for H in pool:
            for K in pool:
                yield (sampling.random_transitive_class(rng, G, H, C),
                       sampling.random_transitive_class(rng, H, K, C))


def _assert_oracle_matches_reference(pairs):
    count = 0
    for X, Y in pairs:
        assert (fibred._compose_oracle_transitive(X, Y)
                == ref_compose_oracle_transitive(X, Y)), (X, Y)
        count += 1
    return count


def _assert_coset_models_match_reference(pairs):
    """The coset model of each class of each pair equals the full-table
    one: the twisted diagonal, the point of every element of A x C (its
    image of point 0, which holds the identity), the cells, the least
    element (b_t, c) of each point t |C| + c, and the row and every image
    of every element."""
    count = 0
    for X, Y in pairs:
        for T in (X, Y):
            emb = product_embedding(T.ambient, T.fibre)
            nc = T.fibre.order
            inv = T.fibre.inverses
            twisted = sorted(emb.encode(a, inv[v])
                             for a, v in zip(T.elements, T.delta))
            assert monomial._twisted_diagonal(
                T.fibre, T.elements, T.delta) == twisted
            coset_of, reps, rows = ref_coset_model(T.ambient, T.fibre,
                                                   twisted)
            model = fibred._coset_model(T)
            n = emb.ambient.order
            assert [model.image(x, 0) for x in range(n)] == coset_of, T
            assert model.cell == coset_of[::nc], T
            assert model.size == len(reps)
            assert reps == [b * nc + c for b in model.bases
                            for c in range(nc)], T
            assert [model.row(x) for x in range(n)] == rows
            assert [[model.image(x, p) for p in range(len(reps))]
                    for x in range(n)] == rows
            count += 1
    return count


def test_coset_models_match_full_table_reference():
    assert _assert_coset_models_match_reference(
        _oracle_design_pairs(1)) == 336
    for seed, fibre in ((4, "C2xC2"), (6, "C6")):
        assert _assert_coset_models_match_reference(
            _triple_pairs(seed, fibre)) == 250
    assert _assert_coset_models_match_reference(
        _random_pairs(15, LARGE_FIBRES, 40, max_order=4)) == 80


def test_oracle_matches_full_table_reference_on_random_pairs():
    fibres = ("C1", "C2", "C3", "C4", "C2xC2", "C6")
    assert _assert_oracle_matches_reference(
        _random_pairs(15, fibres, 120)) == 120
    assert _assert_oracle_matches_reference(
        _random_pairs(15, LARGE_FIBRES, 60, max_order=4)) == 60


def test_oracle_matches_full_table_reference_on_the_oracle_design():
    assert _assert_oracle_matches_reference(_oracle_design_pairs(1)) == 168


def _mutated_glue(monkeypatch, mutate):
    """Make ``monomial._glue`` answer through ``mutate(glue, args)``,
    with the real kernel and the arguments of each call; returns the
    list of calls made."""
    real = monomial._glue
    calls = []

    def glue(n1, n2, moves, rows, shifts, free):
        args = (n1, n2, moves, rows, shifts, free)
        calls.append(args)
        return mutate(real, args)

    monkeypatch.setattr(monomial, "_glue", glue)
    return calls


def test_orbit_stabilizer_check_catches_a_wrong_pair_label(monkeypatch):
    def wrong_root_label(glue, args):
        rows, label, split = glue(*args)
        n1, n2, _, _, shifts, _ = args
        # the root pair (t |C|, j) is base pair (t, j)
        i, j = split[0]
        label = list(label)
        label[i // len(shifts) * n2 + j] = None
        return rows, label, split

    # pairs whose product has a free orbit, so that a root is labelled
    pairs = [(X, Y) for X, Y in _random_pairs(16, ("C1", "C2", "C4"), 20)
             if not fibred._compose_oracle_transitive(X, Y).is_zero()]
    assert len(pairs) >= 10
    calls = _mutated_glue(monkeypatch, wrong_root_label)
    for X, Y in pairs:
        with pytest.raises(GroupError,
                           match="orbit and stabilizer sizes disagree"):
            fibred._compose_oracle_transitive(X, Y)
    assert len(calls) == len(pairs)


def test_stabilizer_with_two_fibre_values_is_not_a_twisted_diagonal(
        monkeypatch):
    # a pair over C3 x C2 x C2 with fibre C2 whose product has an orbit
    # that (1, 1, c), c != 1, fixes; the freeness test drops it
    (X, Y), = _random_pairs(41, ("C2",), 1, max_order=4)
    dropped = []

    def keep_every_orbit(glue, args):
        n1, n2, moves, rows, shifts, free = args
        dropped.append(len(glue(*args)[2]))
        kept = glue(n1, n2, moves, rows, shifts, ())
        dropped[-1] = len(kept[2]) - dropped[-1]
        return kept

    _mutated_glue(monkeypatch, keep_every_orbit)
    with pytest.raises(GroupError,
                       match="stabilizer is not a twisted diagonal"):
        fibred._compose_oracle_transitive(X, Y)
    assert dropped[0] > 0


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter with ``src/`` and ``tests/`` on
    the path, and return its stdout split into words."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_oracle_builds_no_full_table_in_a_fresh_interpreter():
    """The oracle builds no full coset table (``coset_action`` is never
    called) and none of the products (G x H) x C, (H x K) x C and
    (G x K) x C, and still gives the formula's answers.  A fresh
    interpreter starts with empty product caches."""
    assert _run_fresh("""
        import random
        from fibredburnside import fibred, groups, monomial, sampling
        from helpers import memo_entries

        calls = []
        real = monomial.coset_action

        def counting(*args):
            calls.append(args)
            return real(*args)

        monomial.coset_action = counting
        rng = random.Random(3)
        # G, H and K distinct and nontrivial, so that no product of two
        # of them stands for another
        specs = [("C2", "C3", "C4", "C2"), ("S3", "C2", "C2xC2", "C3"),
                 ("D8", "C4", "Q8", "C4"), ("C2xC2", "S3", "C3", "C2")]
        pairs = []
        for names in specs:
            G, H, K, C = map(groups.group_from_spec, names)
            for _ in range(3):
                X = sampling.random_transitive_class(rng, G, H, C)
                Y = sampling.random_transitive_class(rng, H, K, C)
                pairs.append((fibred.element_of(X), fibred.element_of(Y)))
        results = [fibred.compose_oracle(X, Y) for X, Y in pairs]
        assert calls == [], len(calls)
        for names in specs:
            G, H, K, C = map(groups.group_from_spec, names)
            for left, right in ((G, H), (H, K), (G, K)):
                amb = groups.product_embedding(left, right).ambient
                entries = memo_entries(groups.product_embedding)
                groups.product_embedding(amb, C)
                assert memo_entries(groups.product_embedding) == entries + 1
        assert results == [fibred.compose(X, Y) for X, Y in pairs]
        assert sum(not r.is_zero() for r in results) >= 6
        print("ok", len(pairs))
    """) == ["ok", "12"]


def test_oracle_design_builds_no_product_above_order_64():
    """Composing every pair of the seed-1 ``oracle`` design with
    ``check=True`` in a fresh interpreter builds no product ambient of
    order above 64: G x H, H x K and G x K, never one of them times the
    fibre."""
    assert _run_fresh("""
        from fibredburnside import fibred, groups
        from helpers import live_groups
        from test_oracle_gluing import _oracle_design_pairs

        for X, Y in _oracle_design_pairs(1):
            fibred.compose(fibred.element_of(X), fibred.element_of(Y),
                           check=True)
        orders = [emb.ambient.order for g in live_groups()
                  for emb in g._memo.get(groups.product_embedding,
                                         {}).values()]
        print(max(orders))
    """) == ["64"]


if __name__ == "__main__":
    import time
    start = time.monotonic()
    products = _oracle_design_products((1, 2, 3))
    for factors in products:
        assert (product_embedding(*factors).ambient.table
                == ref_product_table(factors)), factors
    largest = max(product_embedding(*f).ambient.order for f in products)
    assert largest <= 64, largest
    print(f"product ambients of the oracle design, seeds 1-3: "
          f"{len(products)} tables ok, orders up to {largest} "
          f"({time.monotonic() - start:.1f}s)", flush=True)
    runs = [("oracle design, seed 1", _oracle_design_pairs(1)),
            ("oracle design, seed 2", _oracle_design_pairs(2)),
            ("oracle design, seed 3", _oracle_design_pairs(3)),
            ("triples of order <= 4, fibre C2xC2", _triple_pairs(4, "C2xC2")),
            ("triples of order <= 4, fibre C6", _triple_pairs(6, "C6"))]
    runs += [(f"triples of order <= 4, fibre {fibre}",
              _triple_pairs(seed, fibre))
             for seed, fibre in enumerate(LARGE_FIBRES, start=8)]
    for name, pairs in runs:
        start = time.monotonic()
        count = _assert_oracle_matches_reference(pairs)
        print(f"{name}: {count} pairs ok "
              f"({time.monotonic() - start:.1f}s)", flush=True)
