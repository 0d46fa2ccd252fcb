"""Benchmark of the exact calculator: three workloads, each run cold in a
fresh single-threaded process and then warm in that same process, with
every answer checked.

    python3 benchmarks/run.py --workload quotient --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  With ``--trace 0`` the end-to-end metrics of
BENCHMARK.json are measured, tracing off:

* ``setup_s``     -- launch of a fresh process until ``fibredburnside`` is
                     imported and ``small_groups_catalog(15)`` is built and
                     validated (median over several processes);
* ``run_s``       -- wall time of the cold pass, all memo caches empty
                     (median over the fresh processes of the run);
* ``warm_s``      -- one more pass over the same inputs in the same process
                     (median over every warm pass of the run);
* ``peak_rss_mb`` -- ``ru_maxrss`` of a workload process (median);

the three times at the reference speed of ``speedprobe.py``, each scaled
by reference jobs run in its own process (the medians as timed are
printed beside them), and ``fail_ratio`` (failed / attempted tasks)
printed with them and carried by the ``attempted`` and ``failed`` fields
of the result line.

With ``--trace 1`` one untraced and one traced fresh process run, and the
per-layer metrics of BENCHMARK.json are printed: calls and self time of
each traced function in set-up and the cold pass, hit ratios of the memoized ones,
work counts, per-layer totals, and the tracing overhead.  The spans are
written to ``.bench_out/`` at the checkout root.

Processes run one at a time; this process only starts them and waits.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speedprobe
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
PACKAGE_INIT = os.path.join(ROOT, "src", "fibredburnside", "__init__.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("quotient", "oracle", "prime")
SEEDLESS = ("quotient", "prime")

# Set-up time is the median of this many fresh processes per run.
SETUP_SAMPLES = 9
# Warm passes per workload process repeat for this long.
WARM_SECONDS = 1.0
# No run may take longer than this, whatever --seconds says.
TIME_LIMIT_S = 170.0

# Single-threaded workers with reproducible hashing.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                  OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


class BenchError(Exception):
    pass


def run_worker(mode, workload, seed, deadline, warm_seconds=0.0,
               warm_until=0.0, spans_path=""):
    """Start one fresh worker process, wait for it and return its result."""
    launched = time.monotonic()
    if launched >= deadline:
        raise BenchError("time limit reached")
    cmd = [sys.executable, WORKER, mode, workload, str(seed), repr(launched),
           repr(warm_seconds), repr(warm_until), spans_path]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=WORKER_ENV, timeout=deadline - launched)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchError(f"{mode} process for {workload} timed out")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} process for {workload} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, deadline):
    """Untraced: fresh workload processes for --seconds (at least one),
    then set-up-only processes up to SETUP_SAMPLES.  The first process
    shows how long one takes; as many more as fit share the rest of the
    run evenly, each making warm passes until its share is up, so that
    every run times warm passes for about as long."""
    start = time.monotonic()
    end = start + seconds
    results = [run_worker("measure", workload, seed, deadline,
                          warm_seconds=WARM_SECONDS)]
    now = time.monotonic()
    more = int((end - now) // (now - start))
    for i in range(1, more + 1):
        results.append(run_worker("measure", workload, seed, deadline,
                                  warm_seconds=WARM_SECONDS,
                                  warm_until=now + (end - now) * i / more))
    setups = results + [run_worker("setup", workload, seed, deadline)
                        for _ in range(SETUP_SAMPLES - len(results))]
    scale = speedprobe.at_reference_speed
    timed = {
        "setup_s": [r["setup_s"] for r in setups],
        "run_s": [r["run_s"] for r in results],
        "warm_s": [w for r in results for w in r["warm_s"]],
    }
    scaled = {
        "setup_s": [scale([r["setup_s"]], r["setup_jobs"])[0]
                    for r in setups],
        "run_s": [scale([r["run_s"]], r["run_jobs"])[0] for r in results],
        "warm_s": [w for r in results
                   for w in scale(r["warm_s"], r["warm_jobs"])],
    }
    metrics = {name: statistics.median(v) for name, v in scaled.items()}
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"]
                                               for r in results)
    notes = {name: f"median of {len(v)} at reference speed; as timed "
                   f"{statistics.median(timed[name]):.6g} s"
             for name, v in scaled.items()}
    notes["peak_rss_mb"] = f"median of {len(results)} processes"
    return results, metrics, notes


def layer_metrics(traced, untraced_run_s):
    """Per-layer metrics from a traced worker's result."""
    cold, warm = traced["cold"], traced["warm"]
    stats, counters = cold["stats"], cold["counters"]
    m = {}
    for fn in tracer.FUNCTIONS:
        m[fn + ".calls"] = stats[fn][0]
        m[fn + ".self_s"] = stats[fn][1]
    for fn in tracer.MEMOIZED:
        calls = stats[fn][0]
        m[fn + ".hit_ratio"] = (counters.get(fn + ".hits", 0) / calls
                                if calls else 0.0)
    for count in ("groups.subgroups.found", "groups.homomorphisms.found",
                  "groups.product_embedding.cells", "fibred.compose.summands",
                  "hat.is_in_ideal.members", "hat.is_in_ideal.survivors"):
        m[count] = counters.get(count, 0)
    compose = cold["compose_s"]
    tail = tracer.tail_percentile(len(compose))
    m["fibred.compose.p50_ms"] = 1000 * tracer.percentile(compose, 50)
    m["fibred.compose.p95_ms"] = 1000 * tracer.percentile(compose, tail)
    m["fibred.compose.tail_pct"] = tail
    for layer, names in tracer.LAYERS.items():
        fns = [f"{layer}.{name}" for name in names]
        m[layer + ".self_s"] = sum(stats[f][1] for f in fns)
        m[layer + ".errors"] = sum(stats[f][2] for f in fns)
        m[layer + ".warm_self_s"] = sum(warm["stats"][f][1] for f in fns)
    m["untraced.self_s"] = cold["untraced_self_s"]
    m["untraced.warm_self_s"] = warm["untraced_self_s"]
    m["trace_overhead_s"] = traced["run_s"] - untraced_run_s
    return m


def trace(workload, seed, deadline):
    untraced = run_worker("measure", workload, seed, deadline)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl.gz")
    traced = run_worker("trace", workload, seed, deadline,
                        spans_path=spans_path)
    metrics = layer_metrics(traced, untraced["run_s"])
    notes = {"fibred.compose.p95_ms":
             f"percentile {metrics['fibred.compose.tail_pct']} of "
             f"{metrics['fibred.compose.calls']} compose spans",
             "trace_overhead_s": f"traced run_s {traced['run_s']:.4f} s - "
                                 f"untraced run_s {untraced['run_s']:.4f} s"}
    print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    return [untraced, traced], metrics, notes


def declared(trace_on):
    """(name, unit) of every metric BENCHMARK.json declares for the run."""
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace_on else "end_to_end"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(PACKAGE_INIT):
        print(f"error: no package source at {PACKAGE_INIT}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    print(f"workload {args.workload}, seed {args.seed}"
          + (f" (ignored: {args.workload} has fixed inputs)"
             if args.workload in SEEDLESS else ""))
    try:
        units = declared(args.trace)
        if args.trace:
            results, metrics, notes = trace(args.workload, args.seed,
                                            deadline)
        else:
            results, metrics, notes = measure(args.workload, args.seed,
                                              args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if {name for name, _ in units} != set(metrics):
        print("error: computed metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ {name for name, _ in units})}",
              file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for detail in r["failures"]:
            print(f"FAILED {detail}")
    width = max(len(name) for name, _ in units)
    for name, unit in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<{width}}  {metrics[name]:.6g} {unit}{note}")
    print(f"{'fail_ratio':<{width}}  {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} tasks failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
