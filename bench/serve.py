"""Request mixes and the load generators of the serving phases.

One process generates all load, with at most two client threads.

* **closed loop** — two clients, each sends its next request only after
  the previous one completed; throughput is requests over wall time of
  a block.
* **open loop** — one generator thread submits on a fixed schedule
  regardless of completions; each request is timed *from when it was
  due*, so a stall is charged to every request it delays, and how late
  the generator ran is reported.

Requests are built before the clock starts; the service sees only the
generated inputs.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator

from repro.gpusim import XEON_WORKSTATION
from repro.service import (
    ExecutionService,
    ServiceConfig,
    ServiceRequest,
    ShardedExecutionService,
)
from repro.templates import find_edges_graph, find_edges_inputs

from .trace import Recorder
from .workloads import (
    MINIMAL_SPLIT,
    SERVE_CLASSES,
    SERVE_DEVICE,
    SPLIT_DEVICE,
    Serve,
)

#: nothing may be refused by admission control: a refusal is a failure
QUEUE_DEPTH = 1_000_000
RESULT_TIMEOUT = 60.0


@dataclass
class Sent:
    """One request and what the benchmark observed about it."""

    request: ServiceRequest
    kind: str  # hit | miss | simulate | execute
    latency: float = 0.0  # seconds, closed: from submit; open: from due
    late: float = 0.0  # open loop: submit time minus due time
    response: Any = None
    error: str = ""


class Mix:
    """Seeded request source; ``take(n)`` builds the next n requests."""

    def __init__(self, spec: Serve, seed: int) -> None:
        self.spec = spec
        self.rng = random.Random(seed)
        device = SPLIT_DEVICE if spec.churn else SERVE_DEVICE
        self.device = device
        self.classes = {
            name: find_edges_graph(side, side, 8, 2)
            for name, side, _ in SERVE_CLASSES
        }
        self.names = [c[0] for c in SERVE_CLASSES]
        self.weights = [c[2] for c in SERVE_CLASSES]
        #: never-seen templates: distinct (height, width) pairs sized to
        #: ~100 operators after minimal splitting on the 256 KB device,
        #: a 10-20 ms compile
        self._unseen = self._distinct_sizes()
        self.execute_inputs = find_edges_inputs(64, 64, 8, 2, seed=seed)

    def _distinct_sizes(self) -> Iterator[tuple[int, int]]:
        sizes = [(h, w) for h in range(560, 640) for w in range(560, 640, 4)]
        self.rng.shuffle(sizes)
        return iter(sizes)

    def _request(self, template: Any, mode: str, label: str,
                 inputs: Any = None, options: Any = None) -> ServiceRequest:
        return ServiceRequest(
            template=template, device=self.device, host=XEON_WORKSTATION,
            options=options, mode=mode, inputs=inputs, label=label,
        )

    def _kinds(self, n: int) -> list[str]:
        """Request kinds in seeded order.  The churn mix is dealt from a
        balanced deck of ten (5 hits, 3 never-seen, 1 simulate, 1
        execute) so every block carries the same work whatever the seed."""
        if not self.spec.churn:
            return ["hit"] * n
        kinds: list[str] = []
        while len(kinds) < n:
            deck = ["hit"] * 5 + ["miss"] * 3 + ["simulate", "execute"]
            self.rng.shuffle(deck)
            kinds.extend(deck)
        return kinds[:n]

    def take(self, n: int) -> list[Sent]:
        out = []
        names = self.rng.choices(self.names, weights=self.weights, k=n)
        for name, kind in zip(names, self._kinds(n)):
            if kind == "miss":
                h, w = next(self._unseen)
                req = self._request(find_edges_graph(h, w, 5, 4), "compile",
                                    f"miss-{h}x{w}", options=MINIMAL_SPLIT)
            elif kind == "simulate":
                req = self._request(self.classes[name], "simulate", name)
            elif kind == "execute":
                req = self._request(self.classes["rare"], "execute", "rare",
                                    self.execute_inputs)
            else:
                req = self._request(self.classes[name], "compile", name)
            out.append(Sent(request=req, kind=kind))
        return out


def start_service(spec: Serve) -> Any:
    config = ServiceConfig(workers=2, max_queue_depth=QUEUE_DEPTH)
    if spec.fleet:
        return ShardedExecutionService(config, shards=2)
    return ExecutionService(config)


def _finish(sent: Sent, ticket: Any) -> None:
    try:
        sent.response = ticket.result(timeout=RESULT_TIMEOUT)
    except TimeoutError as exc:
        sent.error = str(exc)


def closed_loop(
    svc: Any, batch: list[Sent], rec: Recorder | None = None, clients: int = 2
) -> float:
    """Run ``batch`` through ``clients`` waiting callers; returns req/s.

    With a recorder, each request is a ``request`` span whose children
    are ``submit`` (time blocked in ``submit()``) and ``result``.
    """
    cursor = iter(enumerate(batch))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            index, sent = item
            start = time.perf_counter()
            try:
                if rec is None:
                    _finish(sent, svc.submit(sent.request))
                else:
                    with rec.span("request", op=index):
                        with rec.span("submit"):
                            ticket = svc.submit(sent.request)
                        with rec.span("result"):
                            _finish(sent, ticket)
            except Exception as exc:  # refused or dead shard: a failed op
                sent.error = f"{type(exc).__name__}: {exc}"
            sent.latency = time.perf_counter() - start

    threads = [threading.Thread(target=client) for _ in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return len(batch) / (time.perf_counter() - start)


def open_loop(svc: Any, batch: list[Sent], rate: float) -> None:
    """Submit ``batch`` at ``rate`` req/s from one generator thread;
    fills each ``Sent.latency`` (from due time) and ``Sent.late``."""
    done_at: dict[int, float] = {}
    tickets: list[Any] = [None] * len(batch)

    def mark(index: int) -> Any:
        return lambda _ticket: done_at.__setitem__(index, time.perf_counter())

    def generate() -> None:
        t0 = time.perf_counter()
        for i, sent in enumerate(batch):
            due = t0 + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent.late = max(0.0, time.perf_counter() - due)
            try:
                ticket = svc.submit(sent.request)
            except Exception as exc:
                sent.error = f"{type(exc).__name__}: {exc}"
                continue
            ticket.add_done_callback(mark(i))
            tickets[i] = (ticket, due)

    generator = threading.Thread(target=generate)
    generator.start()
    generator.join()
    for i, (sent, entry) in enumerate(zip(batch, tickets)):
        if entry is None:
            continue
        ticket, due = entry
        _finish(sent, ticket)
        sent.latency = done_at.get(i, time.perf_counter()) - due
