"""The speed of the CPU the benchmark runs on, measured inside its own process.

On a VM that shares its host, the same session can take up to twice as long
in one phase as in another, and phases last from seconds to minutes, so a
whole run can land in a slow one. `Probe` tracks that speed while the
sessions run: a SIGALRM timer interrupts the benchmark every `PERIOD_S`
seconds and times a small fixed kernel (hashing, integer arithmetic, small
numpy operations) in the same thread. The kernel runs twice per tick and
only the second, warm run is timed, so the figure follows the core's speed
and not what the session left in the caches.

A session's time in reference seconds is its wall time minus the time spent
in the probe, times (`REFERENCE_S` / k) ** `ELASTICITY`, where k is the mean
kernel time measured during that session: the time it would have taken on a
CPU that runs the kernel in `REFERENCE_S`. Sessions slow down more than the
kernel when the host is busy: over same-input sessions of each workload on a
2-core x86_64 VM, the log of session time followed the log of k with a
slope of 1.20 to 1.28 (correlation 0.97 to 0.98), hence `ELASTICITY`. A
change to the library changes the session's wall time but not the kernel's,
so it shows in full.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import signal
import time

import numpy as np

PERIOD_S = 0.05
REFERENCE_S = 0.0004  # warm kernel time in a quiet phase of a 2-core x86_64 VM
ELASTICITY = 1.25

_KEYS = [i.to_bytes(16, "little") for i in range(64)]
_WORDS = np.arange(512, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def kernel() -> int:
    digests = {k: hashlib.sha256(k).digest() for k in _KEYS}
    x = 0
    for i in range(6000):
        x += i * i
    for _ in range(20):
        x ^= int((_WORDS ^ (_WORDS >> np.uint64(3))).sum())
    return x + len(digests)


class Probe:
    """Kernel timings taken on a timer while `running()`."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.starts: list[float] = []   # when each tick began
        self.ends: list[float] = []     # when each tick returned to the benchmark
        self.kernel_s: list[float] = []  # the warm kernel time of each tick

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t2)
        self.kernel_s.append(t2 - t1)

    @contextlib.contextmanager
    def running(self):
        for _ in range(20):
            kernel()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def busy_s(self, start: float, end: float) -> float:
        """Time the probe itself took between `start` and `end`."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(max(0.0, min(e, end) - max(s, start))
                   for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def mean_kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time of the ticks between `start` and `end`, or of the last one before."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi > lo:
            return sum(self.kernel_s[lo:hi]) / (hi - lo)
        if hi > 0:
            return self.kernel_s[hi - 1]
        return REFERENCE_S

    def reference_s(self, start: float, end: float, kernel_s: float) -> float:
        """The interval's wall time without the probe's own, in reference seconds."""
        return (end - start - self.busy_s(start, end)) * (REFERENCE_S / kernel_s) ** ELASTICITY
