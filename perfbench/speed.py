"""Timing that takes other tenants' load out of the measurement.

On a shared machine, other tenants slow every process on a core by up to
1.6x, in episodes of 2 to 60 seconds. Best-of-N or longer runs do not
remove that within the time a benchmark run can take, so timings are
normalized by the speed of a fixed reference kernel instead.

While a ``SpeedProbe`` is active, SIGALRM fires every ``INTERVAL_S``
seconds and its handler times ``reference_kernel`` on the same core,
between the program's own steps. ``seconds(a, b)`` turns a
``time.perf_counter`` interval into reference-normalized seconds: each
piece of the interval between two samples, without the handler's own
time, is scaled by ``NOMINAL_S`` over the mean reference time of the two
samples around it. Where the reference kernel runs at its nominal speed
the result is plain wall time; slower phases are scaled back to it. The
kernel belongs to the benchmark, so a change to medsens moves the
normalized times as much as the raw ones.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

INTERVAL_S = 0.05

# reference_kernel's time on an unloaded core of the 2-vCPU x86-64 machine
# on which the benchmark's bounds were set
NOMINAL_S = 6.0e-4


def reference_kernel() -> float:
    """Fixed pure-Python work: float math, a loop and dict updates."""
    acc = 0.0
    for i in range(4000):
        acc += math.sin(i * 0.001) * (i % 7)
    counts: dict[int, int] = {}
    for i in range(1200):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc + len(counts)


class RawClock:
    """Plain wall time, for runs that are not normalized."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def seconds(self, start: float, end: float) -> float:
        return end - start


class SpeedProbe(RawClock):
    """Samples the reference kernel from a SIGALRM handler.

    Every interval passed to ``seconds`` must lie inside the ``with``
    block; the samples taken on entry and on exit bound it.
    """

    def __init__(self):
        self.starts: list[float] = []   # handler entry times
        self.ends: list[float] = []     # handler exit times
        self.refs: list[float] = []     # reference kernel durations
        self._busy = False

    def _sample(self, signum=None, frame=None):
        if self._busy:  # a signal that arrived during the handler itself
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.refs.append(t1 - t0)
        self.ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def seconds(self, start: float, end: float) -> float:
        if self.starts[-1] < end:  # no sample after the interval yet
            self._sample()
        total = 0.0
        k = max(bisect.bisect_right(self.ends, start) - 1, 0)
        while k + 1 < len(self.starts) and self.ends[k] < end:
            lo, hi = max(start, self.ends[k]), min(end, self.starts[k + 1])
            if hi > lo:
                total += (hi - lo) * 2.0 * NOMINAL_S / (self.refs[k] + self.refs[k + 1])
            k += 1
        return total
