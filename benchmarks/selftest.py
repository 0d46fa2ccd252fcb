"""Self-test of the tracer: two traced runs of one workload and seed must
give identical work counts.

    python3 benchmarks/selftest.py --workload prime --seed 1

Compares every per-layer metric of BENCHMARK.json whose unit is ``count``
(calls, found, cells, summands, members, survivors, errors, spans) and the
hit ratios.  Exits 1 and lists the differences when any count moved.
"""

from __future__ import annotations

import argparse
import sys
import time

import run


def work_counts(workload, seed, deadline):
    traced = run.run_worker("trace", workload, seed, deadline)
    metrics = run.layer_metrics(traced, traced["run_s"])
    return {name: metrics[name] for name, unit in run.declared(True)
            if unit == "count" or name.endswith(".hit_ratio")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="prime", choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + 2 * run.TIME_LIMIT_S
    first = work_counts(args.workload, args.seed, deadline)
    second = work_counts(args.workload, args.seed, deadline)
    moved = sorted(name for name in first if first[name] != second[name])
    for name in moved:
        print(f"MOVED {name}: {first[name]} then {second[name]}")
    print(f"{args.workload} seed {args.seed}: {len(first)} work counts, "
          f"{len(moved)} differ between two traced runs")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
