"""The machine's speed, sampled between ops, to scale op times by.

On a shared host the same op can take a third more or less time from one
ten-second spell to the next, as other tenants come and go.  A reference
unit of fixed work, timed between ops, tracks that speed: an op's time
scaled by REFERENCE_S over the reference time measured around it is the
time the op would take at a fixed nominal speed.  The reference unit is
exact rational arithmetic, the work pvcsp's exact LP does most; it uses
nothing of pvcsp.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# seconds one reference unit takes at the nominal speed: its median on the
# 2-CPU virtual machine the benchmark was tuned on (Python 3.11.7)
REFERENCE_S = 0.0018
# reference units per sample; one sample takes about 3.6 ms
UNITS_PER_SAMPLE = 2
# a sample is taken before an op when this long has passed since the last
SAMPLE_EVERY_S = 0.2
# an op's time is scaled by the median of the samples taken from this long
# before it starts to this long after it ends
WINDOW_S = 1.0


def reference_unit() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return total


class Speed:
    """Reference samples, as (midpoint, seconds per unit), in time order."""

    def __init__(self):
        self.times: list[float] = []
        self.unit_s: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(UNITS_PER_SAMPLE):
            reference_unit()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.unit_s.append((t1 - t0) / UNITS_PER_SAMPLE)

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """The span's duration at the nominal speed.  Needs a sample within
        WINDOW_S of the span; `timed` takes one on each side."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return (end - start) * REFERENCE_S / statistics.median(self.unit_s[lo:hi])

    def timed(self, fn, *args):
        """Call fn(*args) between two samples; returns its result and its
        duration at the nominal speed."""
        self.sample()
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        self.sample()
        return result, self.scaled(t0, t1)

    def factor(self) -> float:
        """Median measured over nominal reference time: above 1 on a slow spell."""
        return statistics.median(self.unit_s) / REFERENCE_S
