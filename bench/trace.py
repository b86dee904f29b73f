"""The benchmark's own in-memory span recorder.

Spans are recorded from the benchmark's files, around the calls into
each layer; nothing inside ``src/`` is edited.  A span has a name, a
start, an end, the span that caused it and the id of the operation
(request or compile) it belongs to.  Counts are kept at the same
boundaries.  Everything stays in memory until :meth:`Recorder.dump`.

A layer's *self time* is its span's duration minus the part its child
spans cover, so a parent never double-counts the layers it calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe span and count recorder (one per traced run)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        if op is None and stack:
            op = stack[-1][1]
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, op))

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # -- aggregation -----------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name (duration minus children)."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration - child_time.get(s.id, 0.0)
        return dict(out)

    def dump(self, path: str, **header: Any) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    **header,
                    "counts": dict(self.counts),
                    "self_seconds": self.self_times(),
                    "spans": [
                        [s.id, s.name, s.start, s.end, s.parent, s.op]
                        for s in self.spans
                    ],
                    "span_fields": ["id", "name", "start", "end", "parent", "op"],
                },
                fh,
            )


def resolve(dotted: str) -> Any | None:
    """``"package.module:attr.sub"`` -> the object, or ``None`` when the
    module or attribute is gone (a ROADMAP deletion): probes report
    ``absent`` instead of failing."""
    module_name, _, attr_path = dotted.partition(":")
    try:
        obj: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in attr_path.split(".") if attr_path else ():
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


@contextlib.contextmanager
def wrapped(
    rec: Recorder,
    dotted: str,
    name: str,
    after: Callable[[Any, tuple, Any], None] | None = None,
) -> Iterator[bool]:
    """Time every call of ``module:attr`` as a span while the block runs.

    The attribute is replaced by a wrapper and restored on exit; yields
    whether the target exists.  ``after(rec, args, result)`` records
    counts at the same boundary.
    """
    module_name, _, attr_path = dotted.partition(":")
    owner_path, _, attr = attr_path.rpartition(".")
    owner = resolve(f"{module_name}:{owner_path}" if owner_path else module_name)
    target = getattr(owner, attr, None) if owner is not None else None
    if target is None:
        yield False
        return

    @functools.wraps(target)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with rec.span(name):
            result = target(*args, **kwargs)
        if after is not None:
            after(rec, args, result)
        return result

    setattr(owner, attr, wrapper)
    try:
        yield True
    finally:
        setattr(owner, attr, target)
