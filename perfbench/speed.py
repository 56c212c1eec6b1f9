"""Machine-speed probe for the timed ops.

On a shared host the speed of a process drifts by up to 2x, for seconds
or minutes at a time, whatever the program does.  The probe runs a
fixed arithmetic loop from a SIGALRM handler every PERIOD seconds,
inside the measuring process, and records how long the loop took.
An interval scales to seconds at the reference speed as the interval
times REF_S over the median loop time observed during it.  A change to
the program moves the interval, not the loop, so it shows in full.

The loop mixes big-integer arithmetic (as in mpmath) with complex and
float arithmetic (as in the library's scalar code).  On a 2-core shared
x86-64 host it cut the per-op spread of repeated k10, k11, rho_bures
and cd_kernel calls from 0.22-0.31 to 0.08-0.14 of the median, where a
small-integer loop barely helped.
"""
from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time

PERIOD = 0.025
# the loop's time at the steady (fastest) speed of a 2-core x86-64 host;
# a constant, so scaled seconds compare across runs and commits
REF_S = 2.4e-4
MIN_SAMPLES = 20
_BIG = 3 ** 400
_MOD = (1 << 1200) - 93


def _loop() -> complex:
    """Big-integer (mpmath-like) and complex/float arithmetic, half each."""
    acc = 1
    for i in range(60):
        acc = (acc * _BIG + i) % _MOD
    acc = 0j
    for i in range(200):
        x = 1.5 + i * 0.01
        z = complex(x, 0.3)
        acc += z * z / (z + 1.0) + math.log(x) * math.exp(-x)
    return acc


class SpeedProbe:
    def __init__(self):
        self.ends = []      # perf_counter at the end of each sample
        self.loops = []     # seconds the loop took

    def _tick(self, signum, frame):
        # a garbage collection started by the loop's allocations would
        # charge the program's heap to the loop
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _loop()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.ends.append(t1)
        self.loops.append(t1 - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def loop_s(self, t0: float, t1: float) -> float:
        """Median loop time over [t0, t1], widened back in time to at
        least MIN_SAMPLES samples."""
        hi = bisect.bisect_right(self.ends, t1)
        lo = min(bisect.bisect_left(self.ends, t0), max(0, hi - MIN_SAMPLES))
        if hi == lo:  # no sample yet: take one now
            self._tick(None, None)
            return self.loops[-1]
        return statistics.median(self.loops[lo:hi])
