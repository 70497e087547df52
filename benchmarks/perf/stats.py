"""Order statistics the benchmark reports: medians, quartiles, tails.

Percentiles use the nearest-rank definition, so every reported value is
a sample that was actually measured.  A tail is reported at the highest
percentile that still has at least ``MIN_BEYOND`` samples above it; a
p99 over 90 samples would rest on a single observation.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Tail percentiles tried from the highest down.
TAIL_CANDIDATES = (99.9,) + tuple(float(p) for p in range(99, 49, -1))


def _rank(p: float, n: int) -> int:
    """1-based nearest rank; rounding first keeps 99.9% of 10000 at 9990."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The nearest-rank *p*-th percentile (0 < p <= 100) of *values*."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    return sorted(values)[_rank(p, len(values)) - 1]


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """``(p, value)`` for the highest percentile with enough samples beyond.

    Falls back to the median when the sample is too small for any
    candidate to keep ``MIN_BEYOND`` samples above it.
    """
    n = len(values)
    for p in TAIL_CANDIDATES:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p, nearest_rank(values, p)
    return 50.0, nearest_rank(values, 50.0)


def median(values: Sequence[float]) -> float:
    """The sample median (mean of the middle pair for even counts)."""
    return statistics.median(values)

