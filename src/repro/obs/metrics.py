"""Metrics registry: counters, gauges, and histograms.

A process-local, dependency-free take on the usual metrics trio, sized
for the simulator: `SimRuntime` counts bytes moved per direction and
thrashing episodes, :class:`~repro.gpusim.DeviceAllocator` tracks peak
usage and fragmentation, the transfer scheduler counts evictions by
reason, and the executor snapshots everything into
:class:`~repro.runtime.ExecutionResult`.  Snapshots are plain nested
dicts so they serialize with ``json.dumps`` unmodified (the CLI's
``--json`` output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Counter:
    """Monotonically increasing count (events, bytes, moves)."""

    value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


@dataclass
class Gauge:
    """Last-written value, with the historical peak kept alongside."""

    value: float = 0
    peak: float = 0

    def set(self, value: float) -> None:
        self.value = value
        self.peak = max(self.peak, value)


@dataclass
class Histogram:
    """Streaming summary of observations (count/sum/min/max/mean/percentiles).

    Percentiles come from a bounded sample reservoir: all observations
    are kept up to :data:`MAX_SAMPLES`, after which the reservoir is
    deterministically decimated (every 2nd sample dropped, stride
    doubled) so memory stays bounded while quantiles remain exact for
    the simulator's typical populations and approximate beyond.
    """

    MAX_SAMPLES = 4096

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    _samples: list[float] = field(default_factory=list, repr=False)
    _stride: int = 1

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if (self.count - 1) % self._stride == 0:
            self._samples.append(value)
            if len(self._samples) > self.MAX_SAMPLES:
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of the sampled observations, p in [0, 100].

        Raises :class:`ValueError` on an empty histogram — a fabricated
        0.0 latency is worse than a loud error.  The extremes come from
        the exactly-tracked ``min``/``max``, not the reservoir, so
        ``percentile(100)`` equals the observed maximum even after
        reservoir decimation has dropped the extreme samples.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.count:
            raise ValueError("percentile of an empty histogram")
        if p == 0:
            return self.min
        if p == 100:
            return self.max
        ordered = sorted(self._samples)
        rank = math.ceil(p / 100 * len(ordered))
        return ordered[rank - 1]

    def to_dict(self) -> dict[str, float]:
        if not self.count:
            return {
                "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


@dataclass
class MetricsRegistry:
    """Named metrics, created lazily on first touch.

    Names are dotted paths (``gpu.bytes_h2d``, ``plan.evictions``); the
    snapshot groups them by family so downstream consumers need no
    schema knowledge.
    """

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        return self.counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        return self.gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        return self.histograms.setdefault(name, Histogram())

    #: gauge-name suffixes merged by maximum instead of last-write-wins
    PEAK_GAUGE_SUFFIXES = ("_peak", ".peak")

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one.

        Counters add and histograms combine — both order-independent.
        Gauges are last-write-wins by definition, which *is* order
        dependent: merging per-request registries in completion order
        would leave an arbitrary request's value behind.  Two rules keep
        merged snapshots truthful:

        * every gauge's ``peak`` field takes the max of both peaks;
        * a gauge whose *name* marks it as a high-water mark (ending in
          ``_peak`` or ``.peak``) takes the **max of both values**, so
          the merged value is the fleet-wide peak no matter which
          registry merged first.  Other gauges keep the other
          registry's last value (the newest observation wins).
        """
        for name, c in other.counters.items():
            self.counter(name).inc(c.value)
        for name, g in other.gauges.items():
            gauge = self.gauge(name)
            if name.endswith(self.PEAK_GAUGE_SUFFIXES):
                gauge.set(max(gauge.value, g.value))
            else:
                gauge.set(g.value)
            gauge.peak = max(gauge.peak, g.peak)
        for name, h in other.histograms.items():
            mine = self.histogram(name)
            if h.count:
                mine.count += h.count
                mine.total += h.total
                mine.min = min(mine.min, h.min)
                mine.max = max(mine.max, h.max)
                mine._samples.extend(h._samples)
                mine._stride = max(mine._stride, h._stride)
                while len(mine._samples) > Histogram.MAX_SAMPLES:
                    mine._samples = mine._samples[::2]
                    mine._stride *= 2

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready nested dict of every metric's current value."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {
                n: {"value": g.value, "peak": g.peak}
                for n, g in sorted(self.gauges.items())
            },
            "histograms": {
                n: h.to_dict() for n, h in sorted(self.histograms.items())
            },
        }


__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]
