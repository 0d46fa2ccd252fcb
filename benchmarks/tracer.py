"""Outside-in tracer: spans and work counts around the public functions of
each library layer, installed by rebinding names in the package's module
namespaces.  Nothing in the library knows about it.

Every module of the package that binds a traced function (by definition
or by ``from ... import``) gets the wrapper, so internal calls such as
``hat_dimension`` -> ``is_in_ideal`` are seen as well as calls made by the
benchmark.  Spans are kept in memory as tuples
``(function, start, end, parent span, task id, raised)`` and written out at
the end; self time is a span's duration minus its children's durations
(calls are strictly nested in one thread).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

PACKAGE = "fibredburnside"

LAYERS = {
    "groups": ("subgroups", "product_embedding", "homomorphisms",
               "automorphisms", "isomorphism", "double_coset_representatives",
               "small_groups_catalog"),
    "goursat": ("projection", "kernel_part", "goursat_decompose"),
    "monomial": ("monomial_set_from_pair", "decompose_monomial",
                 "coset_action"),
    "fibred": ("compose", "compose_oracle", "subcharacter_classes",
               "transitive_basis", "bouc_factorize", "canonicalize"),
    "hat": ("is_in_ideal", "hat_dimension", "hat_multiply", "hat_basis_prime",
            "verify_hat_vs_quotient"),
}

FUNCTIONS = tuple(f"{layer}.{name}" for layer, names in LAYERS.items()
                  for name in names)

MEMOIZED = ("groups.subgroups", "groups.product_embedding",
            "groups.homomorphisms", "fibred.subcharacter_classes")

# The highest percentile reported for compose span durations, used only
# when at least this many spans lie beyond it.
TAIL_PERCENTILES = (95, 90, 75, 50)
TAIL_MIN_BEYOND = 10


def _domain_key(domain):
    """A group, or a subgroup as (parent group, elements).  Keys hold the
    objects themselves, never ``id()``, so a key cannot be reused by a
    later object after collection."""
    parent = getattr(domain, "parent", None)
    return (domain, None) if parent is None else (parent, domain.elements)


def _memo_key(fn, args, kwargs):
    """The argument value that the function's memo cache depends on."""
    if fn == "groups.product_embedding":
        return tuple(args)
    if fn == "groups.subgroups":
        return args[0] if args else kwargs["G"]
    if fn == "groups.homomorphisms":
        domain = args[0] if args else kwargs["domain"]
        C = args[1] if len(args) > 1 else kwargs["C"]
        return (_domain_key(domain), C)
    if fn == "fibred.subcharacter_classes":
        return tuple(args) + tuple(kwargs.values())
    raise KeyError(fn)


class Tracer:
    """Records spans and counters while installed; ``uninstall`` restores
    every rebound name."""

    def __init__(self):
        self.spans = []
        self.task = None
        self.counters = {}
        self._stack = []
        self._seen = {fn: set() for fn in MEMOIZED}
        self._rebound = []

    # -- installation ------------------------------------------------------

    def install(self):
        originals = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in names:
                fn = getattr(module, name)
                originals[fn] = self._wrap(f"{layer}.{name}", fn)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None
                   and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = originals.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._rebound.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def _wrap(self, fn_name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        on_result = self._on_result

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fn_name, start, end, parent, self.task, raised)
            on_result(fn_name, args, kwargs, result)
            return result

        return traced

    # -- counters ------------------------------------------------------------

    def _bump(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _on_result(self, fn, args, kwargs, result):
        if fn in self._seen:
            key = _memo_key(fn, args, kwargs)
            seen = self._seen[fn]
            if key in seen:
                self._bump(fn + ".hits")
                return
            seen.add(key)
            if fn == "groups.subgroups" or fn == "groups.homomorphisms":
                self._bump(fn + ".found", len(result))
            elif fn == "groups.product_embedding":
                self._bump(fn + ".cells", result.ambient.order ** 2)
        elif fn == "fibred.compose":
            self._bump(fn + ".summands", len(result.terms))
        elif fn == "hat.is_in_ideal":
            self._bump(fn + (".survivors" if result is None else ".members"))

    # -- summaries -----------------------------------------------------------

    def mark(self) -> int:
        """Start a new pass: spans recorded from here on are summarized
        apart, and counters restart; memo keys are kept, as the library's
        own caches are."""
        self.counters = {}
        return len(self.spans)

    def self_times(self, start=0):
        """Per-function [calls, self seconds, raised count] over the spans
        from ``start`` on, and the total duration of their top-level
        spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, begin, end, parent, _, _ in spans[start:]:
            if parent >= 0:
                child[parent] += end - begin
        stats = {fn: [0, 0.0, 0] for fn in FUNCTIONS}
        top = 0.0
        for i in range(start, len(spans)):
            name, begin, end, parent, _, raised = spans[i]
            entry = stats[name]
            entry[0] += 1
            entry[1] += (end - begin) - child[i]
            entry[2] += raised
            if parent < 0:
                top += end - begin
        return stats, top

    def durations(self, fn):
        """Sorted durations of every span of one function."""
        return sorted(end - begin for name, begin, end, _, _, _ in self.spans
                      if name == fn)

    def write(self, path):
        """Spans as gzipped JSON lines; line i is span i."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def tail_percentile(n: int) -> int:
    """The highest percentile of TAIL_PERCENTILES with at least
    TAIL_MIN_BEYOND of n samples beyond it (50 when n is too small)."""
    for q in TAIL_PERCENTILES:
        if n * (100 - q) / 100 >= TAIL_MIN_BEYOND:
            return q
    return 50


def percentile(values, q):
    """Nearest-rank percentile of sorted values (0 for no values)."""
    if not values:
        return 0.0
    rank = max(1, -(-q * len(values) // 100))
    return values[rank - 1]
