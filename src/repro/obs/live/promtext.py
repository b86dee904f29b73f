"""Prometheus text-format exposition (version 0.0.4).

Renders the live telemetry plane — metrics-registry snapshots, sliding
windows, plan-cache stats — as the plain-text format every Prometheus
scraper understands, without importing any client library.  Naming
follows the upstream conventions:

* one flat namespace under a ``repro_`` prefix, dotted registry names
  mapped to underscores (``service.queue_depth`` →
  ``repro_service_queue_depth``);
* counters get a ``_total`` suffix; gauges keep their base name and
  additionally expose their high-water mark as ``<name>_peak``;
* histograms and sliding windows render as **summaries**: one
  ``{quantile="0.5|0.95|0.99"}`` sample per percentile plus ``_sum``
  and ``_count``;
* units are part of the name (``_seconds``, ``_bytes``), which the
  registry's dotted names already follow.

:class:`PromText` is an order-preserving builder; families are emitted
grouped with their ``# HELP`` / ``# TYPE`` headers, as the format
requires.  The usual entry point is
:meth:`repro.service.ExecutionService.prom_text`, served at
``GET /metrics`` by :class:`repro.obs.live.server.StatusServer`.
"""

from __future__ import annotations

import math
import re
from typing import Any, Mapping

#: a valid Prometheus metric name (used by tests to validate output)
PROM_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
#: the summary quantiles exposed for histograms and sliding windows
SUMMARY_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def prom_name(name: str, *, prefix: str = "repro") -> str:
    """Map a dotted registry name onto a valid Prometheus name."""
    flat = _INVALID_CHARS.sub("_", name.replace(".", "_"))
    full = f"{prefix}_{flat}" if prefix else flat
    if not PROM_NAME_RE.match(full):
        full = "_" + full
    return full


def _fmt(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class PromText:
    """Accumulates metric families and renders the exposition text."""

    def __init__(self, *, prefix: str = "repro") -> None:
        self.prefix = prefix
        self._lines: list[str] = []
        self._seen: set[str] = set()

    def _header(self, name: str, kind: str, help_text: str | None) -> None:
        if name in self._seen:
            raise ValueError(f"metric family {name!r} emitted twice")
        self._seen.add(name)
        if help_text:
            self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {kind}")

    def _sample(
        self,
        name: str,
        value: float,
        labels: Mapping[str, Any] | None = None,
    ) -> None:
        if labels:
            body = ",".join(
                f'{k}="{_escape_label(v)}"' for k, v in labels.items()
            )
            self._lines.append(f"{name}{{{body}}} {_fmt(value)}")
        else:
            self._lines.append(f"{name} {_fmt(value)}")

    # -- family emitters -------------------------------------------------
    def counter(
        self, name: str, value: float, *, help_text: str | None = None
    ) -> None:
        full = prom_name(name, prefix=self.prefix)
        if not full.endswith("_total"):
            full += "_total"
        self._header(full, "counter", help_text)
        self._sample(full, value)

    def gauge(
        self,
        name: str,
        value: float,
        *,
        peak: float | None = None,
        help_text: str | None = None,
    ) -> None:
        full = prom_name(name, prefix=self.prefix)
        self._header(full, "gauge", help_text)
        self._sample(full, value)
        if peak is not None:
            self._header(f"{full}_peak", "gauge", None)
            self._sample(f"{full}_peak", peak)

    def summary(
        self,
        name: str,
        stats: Mapping[str, float],
        *,
        help_text: str | None = None,
    ) -> None:
        """A quantile summary from a histogram/window snapshot dict.

        ``stats`` must carry ``count`` and ``sum``; ``p50``/``p95``/
        ``p99`` are emitted as quantile samples when the count is
        non-zero (an empty summary still exposes ``_sum``/``_count`` so
        the family never disappears between scrapes).
        """
        full = prom_name(name, prefix=self.prefix)
        self._header(full, "summary", help_text)
        count = stats.get("count", 0)
        if count:
            for quantile, key in SUMMARY_QUANTILES:
                if key in stats:
                    self._sample(full, stats[key], {"quantile": quantile})
        self._sample(f"{full}_sum", stats.get("sum", 0.0))
        self._sample(f"{full}_count", count)

    def event_log(self, stats: Mapping[str, Any]) -> None:
        """Expose an event-ring's health from a ``live_snapshot()``'s
        ``events`` dict: emitted/dropped counters plus the capacity
        gauge.  Ring overflow (``repro_events_dropped_total`` climbing)
        is the scrape-visible sign that ``telemetry_events`` is too
        small for the traffic."""
        self.counter("events.emitted", stats.get("emitted", 0), help_text=(
            "Telemetry events published to the live event ring"))
        self.counter("events.dropped", stats.get("dropped", 0), help_text=(
            "Telemetry events evicted by the ring capacity bound"))
        self.gauge("events.capacity", stats.get("capacity", 0), help_text=(
            "Configured capacity of the live event ring"))

    def registry(self, snapshot: Mapping[str, Any]) -> None:
        """Emit every metric of a :meth:`MetricsRegistry.snapshot` dict."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name, value)
        for name, g in snapshot.get("gauges", {}).items():
            self.gauge(name, g["value"], peak=g.get("peak"))
        for name, h in snapshot.get("histograms", {}).items():
            self.summary(name, h)

    def render(self) -> str:
        return "\n".join(self._lines) + ("\n" if self._lines else "")


def registry_to_prom(
    snapshot: Mapping[str, Any], *, prefix: str = "repro"
) -> str:
    """One-call exposition of a full metrics-registry snapshot."""
    out = PromText(prefix=prefix)
    out.registry(snapshot)
    return out.render()


__all__ = [
    "PROM_NAME_RE",
    "SUMMARY_QUANTILES",
    "PromText",
    "prom_name",
    "registry_to_prom",
]
