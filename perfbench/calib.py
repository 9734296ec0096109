"""The calibration kernel behind the ``cal`` unit.

A fixed piece of pure-Python exact arithmetic, about 7 ms: ``Fraction``
matrix products (three quarters of its time) and a popcount scan over
bitmask subsets (one quarter), the kinds of work the library's
certification and construction paths do most.  It never imports
``lorentz``, so no change to the program under test moves it.  Timing it
right before and right after a job and dividing the job's wall time by the
mean factors out how fast the host happens to be running.

The mix was chosen by measurement on a shared 2-CPU host whose speed
drifts.  There the 2^n subset scans slow down more than ``Fraction``
arithmetic when the host slows, and dict inserts tracked every job worse
than either part.  With no scan part the construct workload drifted with
the host's speed; with 40% of the time in the scan the sample workload did.

Frozen with the benchmark: changing this file changes the unit.
"""

from __future__ import annotations

import time
from fractions import Fraction

_N = 6
_A = [[Fraction(i + 2 * j + 1, j + 3) for j in range(_N)] for i in range(_N)]
_MASKS = [(k * 2654435761) >> 7 & 0xFFF for k in range(60)]


def kernel() -> int:
    m = _A
    for _ in range(5):
        m = [[sum(m[i][t] * _A[t][j] for t in range(_N)) for j in range(_N)]
             for i in range(_N)]
    ranks = 0
    for mask in range(0, 4096, 32):
        ranks += max(bin(mask & b).count("1") for b in _MASKS)
    return ranks + m[0][0].numerator % 1000


def kernel_ms() -> float:
    """Wall milliseconds of one kernel run."""
    t0 = time.perf_counter_ns()
    kernel()
    return (time.perf_counter_ns() - t0) / 1e6
