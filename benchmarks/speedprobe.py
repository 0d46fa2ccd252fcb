"""Machine-speed probe: reports the benchmark's times at a reference speed.

The benchmark machine is shared: the speed of one vCPU moves by up to a
third within a second and drifts for minutes as other tenants load the
host, so passes of the same code on the same inputs read differently from
one run to the next.  While the probe is on, a SIGALRM handler runs a
fixed reference job every INTERVAL_S seconds of wall time and records its
seconds; the job's own time is left out of the timed pass.  A time is then
reported at the reference speed: times REFERENCE_S over the median
reference job of the same process, timed over the same interval (for
set-up, right after it).

The job is plain Python of the kind the library runs (composing
permutation tuples, looking the products up in a dict, hashing small
frozensets) and calls no library code, so a change to the library moves
the timed passes but not the reference.
"""

from __future__ import annotations

import itertools
import random
import signal
import statistics
import time

# Seconds of wall time between two reference jobs.
INTERVAL_S = 0.2
# Seconds of one reference job at the reference speed (about its median
# during passes on the 2-vCPU machine the baseline was taken on).
REFERENCE_S = 0.004

_DEGREE = 7
_STEPS = 1500


class Probe:
    """Use as a context manager around the passes to be timed; ``time``
    times one pass."""

    def __init__(self):
        perms = list(itertools.permutations(range(_DEGREE)))
        random.Random(_DEGREE).shuffle(perms)
        self._perms = perms
        self._index = {p: i for i, p in enumerate(perms)}
        self._pos = 0
        self.jobs = []
        self.spent = 0.0

    def job(self) -> float:
        """Run the reference job once; returns its seconds."""
        start = time.perf_counter()
        perms, index, n = self._perms, self._index, len(self._perms)
        seen = {}
        for j in range(self._pos, self._pos + _STEPS):
            p, q = perms[j % n], perms[(7 * j + 1) % n]
            pq = tuple(p[i] for i in q)
            seen[frozenset(pq[:3])] = index[pq]
        self._pos = (self._pos + _STEPS) % n
        return time.perf_counter() - start

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        self.jobs.append(self.job())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn) -> float:
        """Call ``fn()``; returns its wall seconds without the reference
        jobs run meanwhile.  One job runs just before, so that every pass
        has one."""
        self._tick()
        spent = self.spent
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start - (self.spent - spent)


def at_reference_speed(seconds: list, jobs: list) -> list:
    """Seconds timed in one process, scaled by REFERENCE_S over the median
    of the reference jobs timed in that process with them."""
    scale = REFERENCE_S / statistics.median(jobs)
    return [s * scale for s in seconds]
