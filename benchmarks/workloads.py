"""The three benchmark workloads as lists of checked tasks.

A task is a ``(task_id, call)`` pair; ``call()`` runs library functions and
returns whether every check on their answers held.  Library functions are
looked up on their modules at call time, so a tracer installed after the
tasks are built still sees every call.

* ``quotient`` -- the paper's flagship: the order-4 fibre counterexample
  over Q8 and D8, then the quotient dimensions for (Q8, C4) and (D8, C4).
* ``oracle`` -- composable pairs X over G x H, Y over H x K with seeded
  random characters, each composed with the formula and cross-checked by
  the orbit oracle.
* ``prime`` -- for each catalog group of order 2..8 except C2xC2xC2, D8
  and Q8, with fibres C2 and C3: the generator product rules against the
  ring, and the brute-force survivor set against the closed-form basis.
"""

from __future__ import annotations

import random

from fibredburnside import fibred, groups, hat, sampling

QUOTIENT_DIMENSIONS = (("Q8", "C4", 30), ("D8", "C4", 14))

ORACLE_MAX_ORDER = 8
ORACLE_FIBRES = ("C2", "C3", "C4")
# Pair t of a round over the n catalog groups g_0..g_{n-1} is
# (g_t, g_{t+a}, g_{t+b}) for each shift (a, b), indices mod n.
ORACLE_SHIFTS = ((1, 2), (5, 11))
# Each triple is composed once per stratum s: the subgroup of X is the
# middle one of slice s of its subgroup list (sorted by order), that of Y
# the middle one of the mirrored slice, so no pair joins two of the
# smallest subgroups.
ORACLE_STRATA = 6

PRIME_MAX_ORDER = 8
PRIME_EXCLUDED = ("C2xC2xC2", "D8", "Q8")
PRIME_FIBRES = ("C2", "C3")


class _Drawn:
    """Stands in for ``random.Random`` in ``sampling``: each ``randrange(n)``
    takes the next pre-drawn value, a fraction u in [0, 1) giving index
    floor(u n), or an integer giving its residue mod n."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def randrange(self, n):
        draw = next(self._draws)
        return int(draw * n) if isinstance(draw, float) else draw % n


def draw_oracle_inputs(seed: int) -> list:
    """The oracle inputs for a seed, drawn before timing: per pair the
    names of G, H and K, the fibre, and per class a subgroup fraction and
    a character integer.

    The triples, fibres and subgroups follow a fixed design that puts
    every catalog group of order <= 8 in every position and takes
    subgroups of every order (see ORACLE_STRATA), so every seed builds the
    same products and composes classes over the same subgroups.  The seed
    draws the character of every class.  Subgroups drawn at random within
    their stratum made the warm pass of ten seeds, timed in one process,
    spread by 7 % of its median between quartiles; with the characters
    alone drawn the spread was 3 %."""
    rng = random.Random(seed)
    names = [g.name for g in groups.small_groups_catalog(ORACLE_MAX_ORDER)]
    n = len(names)
    out = []
    for a, b in ORACLE_SHIFTS:
        for t in range(n):
            triple = [names[t], names[(t + a) % n], names[(t + b) % n]]
            fibre = ORACLE_FIBRES[t % len(ORACLE_FIBRES)]
            for s in range(ORACLE_STRATA):
                draws = []
                for stratum in (s, ORACLE_STRATA - 1 - s):
                    draws.append((stratum + 0.5) / ORACLE_STRATA)
                    draws.append(rng.randrange(1 << 30))
                out.append({"groups": triple, "fibre": fibre,
                            "draws": draws})
    return out


def _quotient_tasks():
    def counterexample():
        return hat.counterexample_verify(7)["ok"] is True

    def dimension(g_spec, c_spec, expected):
        G = groups.group_from_spec(g_spec)
        C = groups.group_from_spec(c_spec)
        return hat.hat_dimension(G, C)[0] == expected

    tasks = [("counterexample", counterexample)]
    for g_spec, c_spec, expected in QUOTIENT_DIMENSIONS:
        tasks.append((f"hat {g_spec} {c_spec}",
                      lambda g=g_spec, c=c_spec, e=expected:
                      dimension(g, c, e)))
    return tasks


def _oracle_tasks(inputs):
    by_name = {g.name: g for g in
               groups.small_groups_catalog(ORACLE_MAX_ORDER)}

    def pair(spec):
        G, H, K = (by_name[n] for n in spec["groups"])
        C = groups.group_from_spec(spec["fibre"])
        rng = _Drawn(spec["draws"])
        X = sampling.random_transitive_class(rng, G, H, C)
        Y = sampling.random_transitive_class(rng, H, K, C)
        # check=True raises GroupError when formula and oracle disagree
        fibred.compose(fibred.element_of(X), fibred.element_of(Y),
                       check=True)
        return True

    return [(f"pair {i} " + "x".join(spec["groups"]) + f" {spec['fibre']}",
             lambda s=spec: pair(s))
            for i, spec in enumerate(inputs)]


def _prime_tasks():
    def cross_check(G, C):
        return hat.verify_hat_vs_quotient(G, C)["ok"] is True

    def survivors(G, C):
        n, found = hat.hat_dimension(G, C)
        closed = {hat.hat_generator_class(g).raw
                  for g in hat.hat_basis_prime(G, C)}
        return n == len(found) and {X.raw for X in found} == closed

    tasks = []
    for G in groups.small_groups_catalog(PRIME_MAX_ORDER):
        if G.order < 2 or G.name in PRIME_EXCLUDED:
            continue
        for c_spec in PRIME_FIBRES:
            C = groups.group_from_spec(c_spec)
            tasks.append((f"verify {G.name} {c_spec}",
                          lambda G=G, C=C: cross_check(G, C)))
            tasks.append((f"survivors {G.name} {c_spec}",
                          lambda G=G, C=C: survivors(G, C)))
    return tasks


def build_tasks(workload: str, seed: int) -> list:
    """The checked tasks of one pass; inputs are fixed here, before any
    timing starts."""
    if workload == "quotient":
        return _quotient_tasks()
    if workload == "oracle":
        return _oracle_tasks(draw_oracle_inputs(seed))
    if workload == "prime":
        return _prime_tasks()
    raise ValueError(f"unknown workload {workload!r}")
