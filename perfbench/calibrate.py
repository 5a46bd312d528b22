"""A fixed reference computation that tracks how fast the machine runs now.

The benchmark's machines share cores with other work, and their speed
drifts by tens of percent over seconds.  Timing this computation right
next to each measured operation gives the speed the operation ran at.  It
does not touch magicsimplex, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_MATRICES = np.random.default_rng(0).standard_normal((16, 9, 9))
_MATRICES = _MATRICES + _MATRICES.transpose(0, 2, 1)


def _work() -> float:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    for m in _MATRICES:
        total += float(np.linalg.eigvalsh(m)[0])
    return total


def reference_ns(repeats: int = 1) -> float:
    """Median nanoseconds of ``repeats`` runs of the reference computation."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        _work()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)
