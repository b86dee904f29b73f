"""The structured event bus: a bounded ring of request-correlated events.

Post-hoc observability (tracers, metrics snapshots, run reports) tells
you what happened after a run completes; a *serving* tier needs to be
watched while traffic is live.  :class:`EventLog` is the push side of
that plane: every layer that participates in a request — admission,
plan-cache lookup, compile, simulated execution, retries, completion —
publishes one typed, timestamped :class:`TelemetryEvent` carrying the
``request_id`` it is working on, so a single request has one end-to-end
trace from admission to completion and the whole log is a queryable,
bounded window onto the service's recent past.

Correlation is ambient: the service binds ``(event_log, request_id)``
into a :mod:`contextvars` context around each request's processing, and
any code below it — :meth:`repro.core.Framework.compile`,
:class:`repro.core.plancache.PlanCache`, :class:`repro.gpusim.SimRuntime`
— calls :func:`publish` without threading parameters through every
signature.  Outside a bound context :func:`publish` is a no-op costing
one context-variable read, so library code pays nothing when no one is
watching.

The ring is bounded (``capacity`` events, oldest dropped first, drops
counted — never silently) and an emit takes no lock: its ``seq`` comes
from an :func:`itertools.count` and it lands in a ``deque(maxlen)``,
each one call that is atomic under the GIL, so many threads publish
while an exporter reads.  Only a sink (the flight recorder's tee) makes
emits serialise, so the sink sees events in ``seq`` order.  A capacity
of 0 disables the log entirely: ``emit`` returns immediately, which is
the telemetry-off configuration the overhead benchmark measures against.

This module sits at the bottom of the import graph (no ``repro.core`` /
``repro.gpusim`` imports), like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

DEFAULT_CAPACITY = 4096
#: ring slots beyond ``capacity``: an emitter switched out between
#: taking its seq and appending lands after newer events, so the ring
#: keeps room for that many late arrivals and reads order by seq
_LATE_SLOTS = 64
_SEQ = attrgetter("seq")


@dataclass(frozen=True, init=False)
class TelemetryEvent:
    """One timestamped occurrence on the event bus.

    ``seq`` is a monotonically increasing position in the log (stable
    across ring-buffer drops, so consumers can detect gaps); ``ts`` is
    wall-clock epoch seconds; ``kind`` is a dotted type name
    (``service.admitted``, ``plancache.hit``, ``compile.done``, ...);
    ``request_id`` correlates the event to one service request (``None``
    for events outside any request).
    """

    seq: int
    ts: float
    kind: str
    request_id: int | None = None
    fields: dict[str, Any] = field(default_factory=dict)

    def __init__(self, seq: int, ts: float, kind: str,
                 request_id: int | None = None,
                 fields: dict[str, Any] | None = None) -> None:
        # One write of the instance dict: a frozen dataclass's own
        # __init__ pays a guarded setattr per field, on every emit.
        self.__dict__.update(seq=seq, ts=ts, kind=kind, request_id=request_id,
                             fields={} if fields is None else fields)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "request_id": self.request_id,
            **({"fields": dict(self.fields)} if self.fields else {}),
        }


class EventLog:
    """Bounded, thread-safe ring buffer of :class:`TelemetryEvent`.

    The oldest events are dropped once ``capacity`` is reached;
    ``dropped`` counts how many.  ``capacity=0`` disables the log
    (every ``emit`` is a cheap no-op returning ``None``).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        clock=time.time,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._clock = clock
        self._ring: deque[TelemetryEvent] = deque(
            maxlen=capacity + _LATE_SLOTS if capacity else 0
        )
        self._seq = itertools.count()
        self._lock = threading.Lock()  # sinks only
        self._sinks: list = []
        self.sink_errors = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def emit(
        self, kind: str, *, request_id: int | None = None, **fields: Any
    ) -> TelemetryEvent | None:
        """Append one event; returns it (or ``None`` when disabled)."""
        if self.capacity == 0:
            return None
        if not self._sinks:
            return self._append(kind, request_id, fields)
        with self._lock:
            event = self._append(kind, request_id, fields)
            # Sinks run inside the lock so a durable tee (the flight
            # recorder) sees events in exact seq order; they must be
            # fast, and they must never break the publishing request.
            for sink in self._sinks:
                try:
                    sink(event)
                except Exception:
                    self.sink_errors += 1
        return event

    def _append(self, kind: str, request_id: int | None,
                fields: dict[str, Any]) -> TelemetryEvent:
        event = TelemetryEvent(next(self._seq), self._clock(), kind, request_id, fields)
        self._ring.append(event)
        return event

    def add_sink(self, sink) -> None:
        """Tee every future event into ``sink(event)``.

        While a sink is attached, emits take the sink lock and invoke it
        synchronously (events arrive in strict ``seq`` order, with no
        reordering window for a crash to exploit); exceptions are
        swallowed and counted in ``sink_errors`` — observability must
        never fail the request being observed.
        """
        with self._lock:
            self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        """Detach a sink added with :meth:`add_sink` (no-op if absent)."""
        with self._lock:
            try:
                self._sinks.remove(sink)
            except ValueError:
                pass

    # -- queries ---------------------------------------------------------
    def _retained(self) -> list[TelemetryEvent]:
        """The newest ``capacity`` events, in seq order."""
        return sorted(self._ring, key=_SEQ)[-self.capacity:] if self.capacity else []

    def events(
        self,
        *,
        request_id: int | None = None,
        kind: str | None = None,
        limit: int | None = None,
    ) -> list[TelemetryEvent]:
        """Events in emission order, optionally filtered.

        ``request_id`` keeps only one request's trace; ``kind`` filters
        by exact kind or dotted prefix (``"service."``); ``limit`` keeps
        the *newest* N after filtering.
        """
        ordered = self._retained()
        if request_id is not None:
            ordered = [e for e in ordered if e.request_id == request_id]
        if kind is not None:
            if kind.endswith("."):
                ordered = [e for e in ordered if e.kind.startswith(kind)]
            else:
                ordered = [e for e in ordered if e.kind == kind]
        if limit is not None and limit >= 0:
            ordered = ordered[len(ordered) - min(limit, len(ordered)):]
        return ordered

    def __len__(self) -> int:
        return min(len(self._ring), self.capacity)

    @property
    def total_emitted(self) -> int:
        # A count's repr names its next value: the one read of an
        # itertools.count that does not advance it.
        return int(repr(self._seq)[6:-1])

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound (0 while under capacity)."""
        return self.total_emitted - len(self)

    def stats(self) -> dict[str, int]:
        """``capacity``, ``emitted`` and ``dropped``: the ring's health."""
        emitted = self.total_emitted
        return {
            "capacity": self.capacity,
            "emitted": emitted,
            "dropped": emitted - len(self),
        }

    def clear(self) -> None:
        self._ring.clear()

    def to_ndjson(
        self, *, request_id: int | None = None, limit: int | None = None
    ) -> str:
        """Newline-delimited JSON export of the (filtered) log."""
        lines = [
            json.dumps(e.to_dict(), sort_keys=True)
            for e in self.events(request_id=request_id, limit=limit)
        ]
        return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Ambient request context
# ---------------------------------------------------------------------------
_CONTEXT: contextvars.ContextVar[tuple[EventLog, int | None] | None] = (
    contextvars.ContextVar("repro_obs_live_context", default=None)
)


class bind:  # noqa: N801 - used as a function: ``with bind(log, id):``
    """Make ``log``/``request_id`` the ambient publish target.

    Context variables are per-thread (and per-async-task), so worker
    threads binding different request ids never observe each other's.
    """

    __slots__ = ("_context", "_token")

    def __init__(self, log: EventLog, request_id: int | None = None) -> None:
        self._context = (log, request_id)

    def __enter__(self) -> None:
        self._token = _CONTEXT.set(self._context)

    def __exit__(self, *exc: Any) -> None:
        _CONTEXT.reset(self._token)


def publish(kind: str, **fields: Any) -> TelemetryEvent | None:
    """Emit onto the ambient event log; no-op when none is bound."""
    ctx = _CONTEXT.get()
    if ctx is None:
        return None
    log, request_id = ctx
    return log.emit(kind, request_id=request_id, **fields)


def current_request_id() -> int | None:
    """The request id of the ambient context, if any."""
    ctx = _CONTEXT.get()
    return None if ctx is None else ctx[1]


# ---------------------------------------------------------------------------
# Chrome-trace export of one request's timeline
# ---------------------------------------------------------------------------
def timeline_to_chrome(
    events: list[TelemetryEvent], *, track: str | None = None
) -> list[dict[str, Any]]:
    """Render one request's event list as a single Chrome-trace track.

    Every event becomes an instant ("i") marker; events carrying a
    ``seconds`` field (``compile.done``, ``service.execute_done``, ...)
    additionally contribute a complete ("X") span ending at the event's
    timestamp, so the trace shows both the milestone stream and the
    stage durations.  Timestamps are microseconds relative to the first
    event, which is what ``chrome://tracing`` / Perfetto expect.
    """
    if not events:
        return []
    epoch = events[0].ts
    rid = events[0].request_id
    name = track or (f"request {rid}" if rid is not None else "events")
    out: list[dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": name, "tid": name,
        "args": {"name": name},
    }]
    for e in events:
        ts_us = (e.ts - epoch) * 1e6
        mark = {"name": e.kind, "pid": name, "tid": name,
                "args": {"seq": e.seq, "request_id": e.request_id, **e.fields}}
        seconds = e.fields.get("seconds")
        if isinstance(seconds, (int, float)) and seconds > 0:
            mark.update(ph="X", ts=max(ts_us - seconds * 1e6, 0.0), dur=seconds * 1e6)
        else:
            mark.update(ph="i", s="t", ts=ts_us)
        out.append(mark)
    return out


__all__ = [
    "DEFAULT_CAPACITY",
    "EventLog",
    "TelemetryEvent",
    "bind",
    "current_request_id",
    "publish",
    "timeline_to_chrome",
]
