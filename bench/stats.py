"""Order statistics used by every phase (medians, percentiles, spreads)."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence


def median(values: Iterable[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median — the
    spread the driver (and ``bench.compare``) holds against a bound."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0
