"""Host-speed calibration: report times at a fixed reference CPU speed.

On a shared host a neighbour can halve this process's CPU speed for tens of
seconds: on a 2-vCPU x86-64 virtual machine a fixed pure-Python loop ran in
1.0 ms, then in 2.1 ms for 15 s, then in 1.0 ms again.  Raw wall-clock times
of the same inputs then vary by 20-25 % between runs, more than any useful
regression bound.

So every timed interval is bracketed by two samples of a fixed kernel, and
its duration is scaled by REF_S / (mean of the two samples): the time the
interval would have taken with the kernel running at REF_S.  The kernel is
plain Fraction and int arithmetic, the same kinds of work as arclift's hot
paths, and uses no arclift code, so no change to arclift moves it.  The raw
wall-clock figures are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median kernel time on an uncontended vCPU of that 2-vCPU x86-64 machine,
# Python 3.11.
REF_S = 1.0e-3
_P = 2**31 - 1


def kernel():
    a = [Fraction(i % 9 - 4, i % 4 + 1) for i in range(1, 25)]
    s = Fraction(0)
    for i in range(len(a)):
        for j in range(i, len(a)):
            s += a[i] * a[j]
    acc = 0
    for i in range(1, 1500):
        acc = (acc * 31 + i * i) % _P
    return s, acc


def sample() -> float:
    """Median time of three kernel runs, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Scales consecutive timed intervals by the kernel samples bracketing each."""

    def __init__(self):
        self.last = sample()

    def scale(self) -> float:
        """Factor for the interval that just ended: (speed-scaled time) / (raw time)."""
        now = sample()
        factor = 2 * REF_S / (self.last + now)
        self.last = now
        return factor
