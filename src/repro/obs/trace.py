"""Structured trace spans for the compilation pipeline.

The paper's evaluation is built from profiler evidence ("time actually
spent inside the GPU device driver ... in memcopy"); this module gives
the *compiler* the same visibility.  A :class:`Tracer` records one
:class:`Span` per pipeline phase (splitting, offload-unit
identification, operator scheduling, transfer scheduling, PB
optimisation, validation) with wall-clock timings and per-phase
attributes — ops split, transfer floats, solver statistics — so every
future performance PR can be measured instead of guessed at.

Spans nest: entering a span inside another records the parent's name, so
exports (see :mod:`repro.obs.chrometrace`) can reconstruct the flame
graph of one ``Framework.compile`` call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class Span:
    """One timed phase; ``start``/``duration`` are wall-clock seconds
    relative to the owning tracer's epoch."""

    name: str
    start: float
    duration: float = 0.0
    parent: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span (ops split, floats saved, ...)."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "parent": self.parent,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Collects spans for one compilation (or any other timed activity).

    Usage::

        tracer = Tracer()
        with tracer.span("splitting") as sp:
            report = make_feasible(graph, cap)
            sp.set(split_ops=len(report.split_ops))
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self._stack: list[Span] = []
        self.spans: list[Span] = []

    def now(self) -> float:
        """Seconds since this tracer's epoch (span ``start`` time base)."""
        return self._clock() - self._epoch

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._stack[-1].name if self._stack else None
        sp = Span(name=name, start=self.now(), parent=parent, attrs=dict(attrs))
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.duration = self.now() - sp.start
            self._stack.pop()
            self.spans.append(sp)

    def event(self, name: str, **attrs: Any) -> Span:
        """Record an instantaneous (zero-duration) marker."""
        parent = self._stack[-1].name if self._stack else None
        sp = Span(name=name, start=self.now(), parent=parent, attrs=dict(attrs))
        self.spans.append(sp)
        return sp

    def merge(self, other: "Tracer", *, prefix: str | None = None) -> None:
        """Fold another tracer's completed spans into this one.

        Spans are re-based onto this tracer's epoch (the other tracer's
        epoch offset is preserved so relative timings stay truthful) and
        optionally re-parented under ``prefix`` — the execution service
        uses this to collect per-request tracers into one service-wide
        timeline.
        """
        shift = other._epoch - self._epoch
        for sp in other.spans:
            self.spans.append(
                Span(
                    name=sp.name,
                    start=sp.start + shift,
                    duration=sp.duration,
                    parent=sp.parent if sp.parent is not None else prefix,
                    attrs=dict(sp.attrs),
                )
            )

    def find(self, name: str) -> list[Span]:
        """All completed spans with the given name, in completion order."""
        return [s for s in self.spans if s.name == name]

    def total_time(self) -> float:
        return max((s.end for s in self.spans), default=0.0)

    def to_dicts(self) -> list[dict[str, Any]]:
        return [s.to_dict() for s in sorted(self.spans, key=lambda s: s.start)]


__all__ = ["Span", "Tracer"]
