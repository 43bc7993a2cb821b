"""The machine's speed through a run, for times at a reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter or more over tens of seconds, and the drift shows in process CPU
time as much as in wall time.  So a run samples a fixed pure-Python kernel
between requests (never inside one) and scales each measured time by
``KERNEL_REF_S`` over the median kernel time around it.  A time so scaled
is the time the same work would take on a machine where the kernel takes
``KERNEL_REF_S``; a program that does its work twice as fast still reads
twice as fast.  The raw times are kept and printed beside the scaled ones.

The kernel does what the program spends its time on: tuples, dict and set
look-ups, string keys, list growth and a sort.  Sampled beside graph
builds, DPLL and set-of-support saturation through a few minutes of drift,
its time tracked theirs better than an arithmetic loop or a cache-missing
one did.  It allocates little and runs with the collector off: a kernel
that also made many small dicts read up to twice as slow inside runs as
alone.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

KERNEL_REF_S = 0.0015   # the kernel's time at the reference speed
EVERY_S = 0.05          # least wall time between two kernel samples
# samples this close to a timed span set its scale: the host's speed also
# swings within seconds, which a wider window misses
HALF_WINDOW_S = 1.0


def kernel() -> int:
    d: dict[tuple, int] = {}
    acc = []
    for i in range(1500):
        k = (i * 7919) % 613
        t = (k, i & 7, str(k))
        d[t] = d.get(t, 0) + 1
        acc.append(t)
    acc.sort()
    return len(set(acc[::3])) + len(d)


class Speed:
    """Kernel samples taken through a run, and the scale they give."""

    def __init__(self) -> None:
        self.at: list[float] = []     # middle of each sample, perf_counter seconds
        self.took: list[float] = []
        self.last = -1e300

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            kernel()
            t1 = perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.last = t1

    def tick(self) -> None:
        """Sample when the last sample is at least ``EVERY_S`` old."""
        if perf_counter() - self.last >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference kernel time over the median kernel time within
        ``HALF_WINDOW_S`` of [start, end], or at the nearest sample."""
        i = bisect.bisect_left(self.at, start - HALF_WINDOW_S)
        j = bisect.bisect_right(self.at, end + HALF_WINDOW_S)
        window = self.took[i:j]
        if not window:
            k = min(range(len(self.at)), key=lambda n: abs(self.at[n] - start))
            window = [self.took[k]]
        return KERNEL_REF_S / statistics.median(window)

    def scaled(self, start: float, seconds: float) -> float:
        return seconds * self.scale(start, start + seconds)

    def summary(self) -> dict:
        took = sorted(self.took)
        return {"samples": len(took), "kernel_ms_min": took[0] * 1000,
                "kernel_ms_median": statistics.median(took) * 1000, "kernel_ms_max": took[-1] * 1000,
                "kernel_ms_reference": KERNEL_REF_S * 1000}
