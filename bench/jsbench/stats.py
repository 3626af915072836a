"""Order statistics for timing samples."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """The q-th percentile (0-100) with linear interpolation between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def mean(values) -> float:
    xs = list(values)
    return sum(xs) / len(xs) if xs else 0.0
