"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import math
import statistics


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; a failed operation is ``math.inf``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def beyond(values: list[float], share: float) -> int:
    """How many samples lie strictly above the ``share`` percentile."""
    cut = percentile(values, share)
    return sum(1 for value in values if value > cut)


def median(values: list[float]) -> float:
    return statistics.median(values)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def finite(value: float) -> float:
    """JSON cannot carry infinity; a tail lost to failures reads as a
    very large latency instead."""
    return value if math.isfinite(value) else 1e9
