"""The benchmark's one percentile definition and its sample containers.

Every percentile the benchmark prints comes from :func:`quantile` over raw
samples the benchmark recorded itself.  The definition is nearest-rank:
the q-quantile of n sorted samples is the value at 1-based rank
``ceil(q * n)``.  A tail percentile is only reported when at least
``MIN_BEYOND`` samples lie beyond it; otherwise :func:`tail` falls back to
the highest quantile that has that many, and says so.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

#: Samples that must lie strictly beyond a reported percentile's rank.
MIN_BEYOND = 10


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank q-quantile of pre-sorted values (0.0 when empty)."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    rank = min(n, max(1, math.ceil(q * n)))
    return float(sorted_values[rank - 1])


def beyond(n: int, q: float) -> int:
    """How many of n samples lie beyond the nearest-rank q-quantile."""
    return n - min(n, max(1, math.ceil(q * n))) if n else 0


def tail(values: Sequence[float], q: float) -> Dict[str, float]:
    """The q-quantile with its sample count, degraded to the highest
    quantile that keeps ``MIN_BEYOND`` samples beyond it when n is small,
    or to the median below ``MIN_BEYOND + 1`` samples (``q_used`` records
    which one was taken; 0.0 means no samples)."""
    ordered = sorted(values)
    n = len(ordered)
    q_used = q
    if n and beyond(n, q) < MIN_BEYOND:
        q_used = max(0.0, (n - MIN_BEYOND) / n) if n > MIN_BEYOND else 0.5
    return {
        "value": quantile(ordered, q_used),
        "n": n,
        "q": q,
        "q_used": q_used if n else 0.0,
    }


def ratio(numerator: float, denominator: float, scale: float = 1.0) -> Dict[str, float]:
    """A ratio recorded with its base (0.0 when the base is empty)."""
    value = numerator * scale / denominator if denominator else 0.0
    return {"value": value, "numerator": numerator, "denominator": denominator}


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the middle two for an even count)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    return float(ordered[mid]) if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


class OpSamples:
    """Simulated per-op latencies, split into reads and writes."""

    def __init__(self) -> None:
        self.reads: List[float] = []
        self.writes: List[float] = []

    def add(self, is_read: bool, latency_us: float) -> None:
        (self.reads if is_read else self.writes).append(latency_us)

    @property
    def ops(self) -> int:
        return len(self.reads) + len(self.writes)
