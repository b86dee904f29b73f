"""Rolling-window aggregation and SLO tracking for live serving.

The all-time histograms in :mod:`repro.obs.metrics` answer "what has
this process ever done"; a serving tier needs "what is happening *right
now*".  :class:`SlidingWindow` keeps a bounded, time-pruned sample of
recent observations and derives count / rate / mean / percentiles over
a configurable horizon, so p99 latency reflects the last minute of
traffic instead of everything since boot.

:class:`SloTracker` layers objectives on top: each
:class:`SloObjective` classifies every completed request as *good* or
*bad* (an availability objective counts non-ok outcomes as bad; a
latency objective counts requests slower than its threshold as bad)
and accounts for the **error budget** — out of the window's ``total``
requests, an objective targeting fraction ``target`` may tolerate
``(1 - target) * total`` bad ones before it is breached.  The snapshot
reports compliance, budget consumed/remaining, and the breach flag, the
numbers a pager (or ``repro top``) wants.

Writes take no lock: a sample is one ``deque.append``, atomic under the
GIL, and the deque's ``maxlen`` drops the oldest sample from the left in
O(1).  Reads copy the deque in one C call and skip the samples older
than the window.  Everything is clock-injectable; nothing imports
``repro.core`` / ``repro.gpusim`` / ``repro.service``.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

DEFAULT_WINDOW_SECONDS = 60.0
#: bound on retained samples per window, independent of the time horizon
MAX_WINDOW_SAMPLES = 8192


def _nearest_rank(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of a pre-sorted, non-empty sample."""
    if p <= 0:
        return ordered[0]
    if p >= 100:
        return ordered[-1]
    rank = math.ceil(p / 100 * len(ordered))
    return ordered[rank - 1]


def _recent(samples: deque, horizon: float) -> list:
    """The ``(ts, ...)`` samples newer than ``horizon``, oldest first."""
    return [s for s in list(samples) if s[0] > horizon]


class SlidingWindow:
    """Time-bounded sample of (timestamp, value) observations.

    Only the newest ``max_samples`` are kept (oldest dropped first), so
    a traffic spike cannot grow the window without bound; reads see
    those not older than ``window_seconds``.
    """

    def __init__(
        self,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        *,
        clock=time.monotonic,
        max_samples: int = MAX_WINDOW_SAMPLES,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.window_seconds = window_seconds
        self.max_samples = max_samples
        self._clock = clock
        self._samples: deque[tuple[float, float]] = deque(maxlen=max_samples)

    def observe(self, value: float) -> None:
        self._samples.append((self._clock(), float(value)))

    def _values(self) -> list[float]:
        horizon = self._clock() - self.window_seconds
        return [v for _, v in _recent(self._samples, horizon)]

    # -- aggregates ------------------------------------------------------
    def count(self) -> int:
        return len(self._values())

    def rate(self) -> float:
        """Observations per second over the window."""
        return self.count() / self.window_seconds

    def mean(self) -> float:
        values = self._values()
        return sum(values) / len(values) if values else 0.0

    def total(self) -> float:
        return sum(self._values())

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of the windowed values, p in [0, 100].

        Raises :class:`ValueError` on an empty window — live dashboards
        should render "no traffic", never a fabricated 0.0 latency.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        values = sorted(self._values())
        if not values:
            raise ValueError("percentile of an empty window")
        return _nearest_rank(values, p)

    def snapshot(self) -> dict[str, float]:
        """JSON-ready summary; zeros (with ``count=0``) when empty."""
        values = sorted(self._values())
        n = len(values)

        def rank(p: float) -> float:
            return _nearest_rank(values, p) if n else 0.0

        return {
            "window_seconds": self.window_seconds,
            "count": n,
            "rate": n / self.window_seconds,
            "sum": float(sum(values)),
            "mean": sum(values) / n if n else 0.0,
            "min": rank(0), "max": rank(100),
            "p50": rank(50), "p95": rank(95), "p99": rank(99),
        }


@dataclass(frozen=True, kw_only=True)
class SloObjective:
    """One service-level objective over the rolling window.

    ``target`` is the required good fraction (0.99 = "99% of windowed
    requests").  With ``latency_threshold`` set, a request is *bad* when
    it is slower than the threshold (an ok-but-slow request still burns
    budget); without it, the objective is availability and a request is
    bad exactly when its outcome was not ``ok``.
    """

    name: str
    target: float
    latency_threshold: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.target <= 1.0:
            raise ValueError("target must be in (0, 1]")
        if self.latency_threshold is not None and self.latency_threshold <= 0:
            raise ValueError("latency_threshold must be > 0 seconds")

    def is_good(self, *, ok: bool, latency: float) -> bool:
        if self.latency_threshold is not None:
            return ok and latency <= self.latency_threshold
        return ok


def default_objectives() -> tuple[SloObjective, ...]:
    """The stock serving SLOs: 99.9% availability, 99% under 1 s."""
    return (
        SloObjective(name="availability", target=0.999),
        SloObjective(name="latency_1s", target=0.99, latency_threshold=1.0),
    )


class SloTracker:
    """Error-budget accounting for a set of objectives over one window."""

    def __init__(
        self,
        objectives: tuple[SloObjective, ...] | list[SloObjective] = (),
        *,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        clock=time.monotonic,
        max_samples: int = MAX_WINDOW_SAMPLES,
    ) -> None:
        self.objectives = tuple(objectives) or default_objectives()
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names: {names}")
        self.window_seconds = window_seconds
        self._clock = clock
        self.max_samples = max_samples
        #: (ts, ok, latency_seconds)
        self._samples: deque[tuple[float, bool, float]] = deque(
            maxlen=max_samples
        )

    def record(self, *, ok: bool, latency: float) -> None:
        """Account one completed request (any terminal status)."""
        self._samples.append((self._clock(), bool(ok), float(latency)))

    def snapshot(self) -> dict[str, Any]:
        """Per-objective compliance and error-budget accounting.

        ``budget_total`` is the number of bad requests the window may
        absorb (``(1 - target) * total``); ``budget_consumed`` is how
        many it has; ``budget_remaining_fraction`` is the unspent share
        (1.0 with an empty window — no traffic burns no budget);
        ``breached`` flips when consumption exceeds the budget, i.e.
        when compliance drops below target.
        """
        samples = _recent(self._samples, self._clock() - self.window_seconds)
        total = len(samples)
        objectives: list[dict[str, Any]] = []
        for obj in self.objectives:
            good = sum(
                1 for _, ok, lat in samples
                if obj.is_good(ok=ok, latency=lat)
            )
            bad = total - good
            budget = (1.0 - obj.target) * total
            remaining = 1.0 if total == 0 else (
                max(budget - bad, 0.0) / budget if budget > 0
                else (1.0 if bad == 0 else 0.0)
            )
            objectives.append({
                "name": obj.name,
                "target": obj.target,
                "latency_threshold": obj.latency_threshold,
                "total": total,
                "good": good,
                "bad": bad,
                "compliance": 1.0 if total == 0 else good / total,
                "budget_total": budget,
                "budget_consumed": float(bad),
                "budget_remaining_fraction": remaining,
                "breached": total > 0 and bad > budget,
            })
        return {
            "window_seconds": self.window_seconds,
            "total": total,
            "objectives": objectives,
        }


__all__ = [
    "DEFAULT_WINDOW_SECONDS",
    "MAX_WINDOW_SAMPLES",
    "SlidingWindow",
    "SloObjective",
    "SloTracker",
    "default_objectives",
]
