"""Order statistics used by the benchmark and its steadiness report."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Percentiles a latency may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie strictly above the ``pct`` percentile rank."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def highest_reportable(count: int, need: int = 10) -> Optional[float]:
    """The highest ladder percentile with at least ``need`` samples beyond it."""
    best = None
    for pct in PERCENTILE_LADDER:
        if samples_beyond(count, pct) >= need:
            best = pct
    return best


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, Q1, Q3 and (Q3 - Q1) / median, with ``statistics.quantiles(n=4)``."""
    med = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = med
    else:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": float(q1),
        "q3": float(q3),
        "spread": (q3 - q1) / med if med else float("inf"),
    }
