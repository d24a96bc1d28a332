"""The host's speed, sampled while the benchmark runs, and times scaled by it.

The host is shared: other tenants slow every process on it by up to about
1.8x, in phases that last from a fraction of a second to minutes, so two runs
of identical work can read 40% apart.  A fixed pure-Python reference kernel
that does not touch groupshift is timed every REF_EVERY seconds of measured
work.  A measured interval is scaled by REF_S / (the kernel's time around
that interval): it reads as the time the interval would take while the
kernel takes exactly REF_S.  A change to groupshift moves the scaled times
as it moves the raw ones; a change of the host's phase moves raw times and
the kernel's time together and leaves the scaled times in place.

REF_S is part of the benchmark's definition: changing it rescales every
reported time.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

REF_S = 0.0011        # the kernel on a quiet core of a 2-core host, Python 3.11.7
REF_EVERY = 0.02      # seconds of measured work between two samples


class _Cell:
    __slots__ = ("a", "b", "h")

    def __init__(self, a, b):
        self.a, self.b, self.h = a, b, hash((a, b))

    def __hash__(self):
        return self.h

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b


def reference() -> int:
    """Hashing, small objects, dicts, sets and tuple sorting: the operations
    the library's inner loops are made of.  The garbage collector is off
    while it runs, so a collection of the program's objects is never timed
    as the kernel's."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        counts: dict = {}
        seen = set()
        for i in range(800):
            key = _Cell(i & 63, i >> 6)
            counts[key] = counts.get(key, 0) + 1
            seen.add(tuple(sorted((i % 7, i % 5, i % 3))))
        return len(counts) + len(seen)
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Kernel times, each stamped with the middle of its measurement."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        for _ in range(3):      # the first runs pay for cold caches
            reference()
        self.since = perf_counter()

    def sample(self) -> None:
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.since = t1

    def maybe_sample(self) -> None:
        if perf_counter() - self.since >= REF_EVERY:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the kernel's time at the samples on both sides of the
        interval's middle."""
        i = bisect.bisect(self.at, (t0 + t1) / 2)
        around = self.took[max(0, i - 1):i + 1]
        return REF_S / statistics.fmean(around)

    def scaled(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.factor(t0, t1)

    def median_s(self) -> float:
        return statistics.median(self.took)
