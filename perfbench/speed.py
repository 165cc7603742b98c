"""Reference speed for timings taken on a shared, throttled host.

The speed of one core on a shared host drifts by up to 2x within seconds,
and CPU time drifts with it, so raw wall times of two runs minutes apart
differ by 20-30% at the median.  While ops are timed, a ``Sampler`` runs a
fixed calibration kernel from a SIGALRM handler every ``INTERVAL_S``: small
numpy calls in a Python loop plus float formatting, the same mix of work as
the program.  Each op's wall time, less the time spent in the handler, is
divided by the host's slowdown during the op: the 10%-trimmed mean kernel
cost of the samples taken during it, over ``NOMINAL_S``.  Reported timings are thus wall
times at the speed where the kernel takes ``NOMINAL_S``.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left, bisect_right

import numpy as np

NOMINAL_S = 0.00045   # kernel time on the reference host when it runs unthrottled
INTERVAL_S = 0.025    # one sample per this much wall time: ~2% of it in the kernel
ITERATIONS = 40
MIN_SAMPLES = 8       # an op shorter than this many intervals borrows its neighbours'

_C = np.random.default_rng(0).standard_normal((6, 6, 6))


def kernel() -> float:
    """Seconds taken by one fixed unit of interpreter-plus-numpy work."""
    z = np.linspace(0.1, 0.6, 6)
    rows = []
    start = time.perf_counter()
    for _ in range(ITERATIONS):
        k = np.einsum("kij,k,j->i", _C, z, 0.5 * z)
        z = z + 1e-4 * k
        rows.append(",".join(f"{x:.17g}" for x in z))
    return time.perf_counter() - start


class Sampler:
    """Calibration samples taken every INTERVAL_S while the block runs."""

    def __init__(self):
        self.times = array("d")
        self.costs = array("d")
        self.spent = 0.0          # seconds spent in the handler so far

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.costs.append(kernel())
        self.times.append(start)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """Host slowdown over [start, end], widened to MIN_SAMPLES samples."""
        lo, hi = bisect_left(self.times, start), bisect_right(self.times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return trimmed_mean(self.costs[lo:hi]) / NOMINAL_S


def trimmed_mean(values) -> float:
    """Mean without the lowest and highest tenth; a sample that a preemption
    or an interrupt lands in can cost 20x the others."""
    values = sorted(values)
    cut = len(values) // 10
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)
