"""One fresh benchmark process: set up, run the cold pass, then warm passes.

Usage (started by run.py, one process at a time):

    python3 benchmarks/worker.py MODE WORKLOAD SEED LAUNCHED WARM_SECONDS \
        WARM_UNTIL SPANS

MODE is ``setup`` (set up and stop), ``measure`` (untraced passes) or
``trace`` (traced set-up, cold pass and one warm pass).  LAUNCHED is
the parent's ``time.monotonic()`` just before it started this process;
set-up time runs from then until the package is imported and the catalog
is built and validated.  Warm passes repeat for WARM_SECONDS and until
the monotonic time WARM_UNTIL.  Outside ``trace``, reference jobs of
``speedprobe.py`` run right after set-up and, with the probe on, during
the cold and warm passes; they are returned with the times.  The result
is one JSON line on stdout.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Warm passes run at least this often.
WARM_MIN_PASSES = 3

# Reference jobs run right after set-up, to scale set-up time.
SETUP_JOBS = 5

# Failure details reported per process.
MAX_FAILURE_DETAILS = 5


def set_up(launched: float, tracer=None) -> float:
    """Import the package from this checkout and build the catalog, as every
    CLI call does; returns seconds since the process was launched.  A
    tracer given is installed before the catalog is built."""
    sys.path.insert(0, SRC)
    import fibredburnside

    where = os.path.dirname(os.path.abspath(fibredburnside.__file__))
    if where != os.path.join(SRC, "fibredburnside"):
        raise ImportError(f"fibredburnside imported from {where}, "
                          f"not from {SRC}")
    if tracer is not None:
        tracer.install()
        tracer.task = "setup"
    fibredburnside.small_groups_catalog(15)
    return time.monotonic() - launched


def run_pass(tasks, failures, tracer=None):
    """Run every task once; returns the wall seconds of the pass.  A task
    that returns False or raises is recorded and the pass goes on."""
    clock = time.perf_counter
    start = clock()
    for task_id, call in tasks:
        if tracer is not None:
            tracer.task = task_id
        try:
            ok = call()
            detail = "check failed"
        except Exception as exc:  # a failed task, counted, never fatal
            ok = False
            detail = f"{type(exc).__name__}: {exc}"
        if not ok:
            failures.append(f"{task_id}: {detail}")
    return clock() - start


def measure(probe, tasks, warm_seconds, warm_until):
    """The cold pass, then warm passes, with the speed probe on; the
    reference jobs run during each are returned with its times."""
    failures = []
    with probe:
        run_s = probe.time(lambda: run_pass(tasks, failures))
        cold = len(probe.jobs)
        warm = []
        stop = max(time.monotonic() + warm_seconds, warm_until)
        while len(warm) < WARM_MIN_PASSES or time.monotonic() < stop:
            warm.append(probe.time(lambda: run_pass(tasks, failures)))
    return {"run_s": run_s, "run_jobs": probe.jobs[:cold],
            "warm_s": warm, "warm_jobs": probe.jobs[cold:],
            "attempted": len(tasks) * (1 + len(warm)),
            "failures": failures}


def trace(tr, tasks, spans_path):
    """Per-function stats and counters cover set-up (the catalog) and the
    cold pass; the warm pass is summarized apart."""
    failures = []
    try:
        pass_start = len(tr.spans)
        run_s = run_pass(tasks, failures, tr)
        cold_stats, _ = tr.self_times()
        _, cold_top = tr.self_times(pass_start)
        counters = tr.counters
        compose = tr.durations("fibred.compose")
        warm_start = tr.mark()
        warm_s = run_pass(tasks, failures, tr)
        warm_stats, warm_top = tr.self_times(warm_start)
    finally:
        tr.uninstall()
    if spans_path:
        tr.write(spans_path)
    return {"run_s": run_s, "warm_s": [warm_s],
            "attempted": 2 * len(tasks), "failures": failures,
            "cold": {"stats": cold_stats, "untraced_self_s": run_s - cold_top,
                     "counters": counters, "compose_s": compose},
            "warm": {"stats": warm_stats,
                     "untraced_self_s": warm_s - warm_top}}


def main(argv):
    mode, workload, seed, launched, warm_seconds, warm_until, spans_path = argv
    tr = None
    if mode == "trace":
        import tracer

        tr = tracer.Tracer()
    setup_s = set_up(float(launched), tr)
    import json
    import resource

    out = {"setup_s": setup_s}
    if mode != "trace":
        import speedprobe

        probe = speedprobe.Probe()
        out["setup_jobs"] = [probe.job() for _ in range(SETUP_JOBS)]
    if mode != "setup":
        import workloads

        tasks = workloads.build_tasks(workload, int(seed))
        if mode == "measure":
            out.update(measure(probe, tasks, float(warm_seconds),
                               float(warm_until)))
        elif mode == "trace":
            out.update(trace(tr, tasks, spans_path))
        else:
            raise ValueError(f"unknown mode {mode!r}")
        out["failed"] = len(out["failures"])
        out["failures"] = out["failures"][:MAX_FAILURE_DETAILS]
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
