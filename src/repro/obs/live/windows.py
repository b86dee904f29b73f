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

Everything here is lock-protected and clock-injectable; nothing imports
``repro.core`` / ``repro.gpusim`` / ``repro.service``.
"""

from __future__ import annotations

import math
import threading
import time
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


class SlidingWindow:
    """Time-bounded sample of (timestamp, value) observations.

    Samples older than ``window_seconds`` are pruned on every write and
    read; the sample count is additionally capped at ``max_samples``
    (oldest dropped first) so a traffic spike cannot grow the window
    without bound.
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
        self._lock = threading.Lock()
        self._samples: list[tuple[float, float]] = []  # (ts, value)

    def _prune(self, now: float) -> None:
        horizon = now - self.window_seconds
        i = 0
        n = len(self._samples)
        while i < n and self._samples[i][0] <= horizon:
            i += 1
        if i:
            del self._samples[:i]
        overflow = len(self._samples) - self.max_samples
        if overflow > 0:
            del self._samples[:overflow]

    def observe(self, value: float) -> None:
        now = self._clock()
        with self._lock:
            self._samples.append((now, float(value)))
            self._prune(now)

    def _values(self) -> list[float]:
        with self._lock:
            self._prune(self._clock())
            return [v for _, v in self._samples]

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
        if not values:
            return {
                "window_seconds": self.window_seconds,
                "count": 0, "rate": 0.0, "sum": 0.0, "mean": 0.0,
                "min": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        return {
            "window_seconds": self.window_seconds,
            "count": len(values),
            "rate": len(values) / self.window_seconds,
            "sum": sum(values),
            "mean": sum(values) / len(values),
            "min": values[0],
            "max": values[-1],
            "p50": _nearest_rank(values, 50),
            "p95": _nearest_rank(values, 95),
            "p99": _nearest_rank(values, 99),
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
        self._lock = threading.Lock()
        #: (ts, ok, latency_seconds)
        self._samples: list[tuple[float, bool, float]] = []

    def record(self, *, ok: bool, latency: float) -> None:
        """Account one completed request (any terminal status)."""
        now = self._clock()
        with self._lock:
            self._samples.append((now, bool(ok), float(latency)))
            self._prune(now)

    def _prune(self, now: float) -> None:
        horizon = now - self.window_seconds
        i = 0
        n = len(self._samples)
        while i < n and self._samples[i][0] <= horizon:
            i += 1
        if i:
            del self._samples[:i]
        overflow = len(self._samples) - self.max_samples
        if overflow > 0:
            del self._samples[:overflow]

    def snapshot(self) -> dict[str, Any]:
        """Per-objective compliance and error-budget accounting.

        ``budget_total`` is the number of bad requests the window may
        absorb (``(1 - target) * total``); ``budget_consumed`` is how
        many it has; ``budget_remaining_fraction`` is the unspent share
        (1.0 with an empty window — no traffic burns no budget);
        ``breached`` flips when consumption exceeds the budget, i.e.
        when compliance drops below target.
        """
        with self._lock:
            self._prune(self._clock())
            samples = list(self._samples)
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
