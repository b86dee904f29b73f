"""The bounded, deduplicating, fault-tolerant execution service.

Architecture (one process, N worker threads)::

    submit() ──admission──┬──> bounded FIFO queue ──> workers ──> _run(ticket)
                │         │
                │         └──> compile whose plan is resident (no batch
                │              window): _serve_hit on the submitting
                │              thread — one Framework.compile cache hit,
                │              resolved before submit() returns
                └─ QueueFullError

    _run(ticket) ─┬─ deadline gate (expire / degrade)
                  ├─ single-flight + batching decide who compiles
                  ├─ _call: compile through the shared content-addressed
                  │    plan cache, then the request's simulate/execute —
                  │    retried with exponential backoff on TransientFault
                  └─ ServiceResponse -> Ticket

Admission resolves the request's compile options once
(``ServiceRequest.compile_options``: the planner is the ``scheduler``
option) and keys them — the ``plan_key`` the ``Framework`` cache uses;
the single-flight and batch keys derive from it.  A ``compile`` whose
plan is resident (``PlanCache.load``: in the memory tier, or read into
it from a disk tier) is a lookup: :meth:`ExecutionService._serve_hit`
serves it without a service lock, an ``Event`` or a ``Tracer``.  Every
request's counters, window and SLO samples are recorded without a lock;
counters are folded into :attr:`ExecutionService.metrics` when read.

:meth:`ExecutionService._call` is the one place work runs: a compile,
then the request's ``simulate`` / ``execute`` on the plan.  Everything
around it — admission, single-flight, batching, deadlines, retries,
degradation, telemetry — is policy, and the fleet
(:class:`~repro.service.ShardedExecutionService`) is this same service
with ``_call`` sent to a pool of worker processes.

Single-flight: the *first* worker to dequeue a given plan-cache key
becomes the leader and compiles; workers dequeuing the same key while
the leader is in flight join the flight and share its result (leaders
are always dequeued before their followers, so a joining worker never
waits on work that has not started — the pool cannot deadlock on
itself).  In process the flight lands as soon as the plan exists,
before the leader's own run; in a fleet it lands with the worker's
reply, which carries that run too.  Completed keys are served by the
plan cache.  Either way the request is a dedupe hit, never a compile.

Every path out of a request is explicit: ``ok``, ``failed`` (with the
last error), ``expired`` (deadline), or ``cancelled`` — and all of them
are visible in the metrics snapshot and trace spans.

The service is also the root of the **live telemetry plane**
(:mod:`repro.obs.live`): each worker binds ``(event_log, request_id)``
around a request's processing, so the service, the compiler, the plan
cache and the simulator all publish request-correlated events into one
bounded ring.  ``request_timeline(id)`` returns one request's full
admission→completion trace, ``live_snapshot()`` / ``prom_text()`` are
the JSON and Prometheus views of the rolling windows and SLO budgets,
and ``serve_status()`` exposes all of it over HTTP for ``repro top``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import replace
from typing import Any, Callable

from repro.core.framework import (
    CompiledTemplate,
    CompileOptions,
    Framework,
)
from repro.core.plancache import PlanCache, SharedPlanCache, plan_key
from repro.gpusim import SimRuntime
from repro.gpusim.faults import FaultInjector, TransientFault
from repro.obs import MetricsRegistry, Span, Tracer
from repro.obs.flight import FlightRecorder, journal_dir
from repro.obs.live import (
    AlertEngine,
    EventLog,
    PromText,
    SlidingWindow,
    SloTracker,
    StatusServer,
    TelemetryEvent,
    default_objectives,
    timeline_to_chrome,
)
from repro.obs.live.events import bind, publish
from repro.runtime.executor import execute_plan, simulate_plan

from .config import ServiceConfig
from .request import (
    QueueFullError,
    RequestStatus,
    ServiceClosedError,
    ServiceError,
    ServiceRequest,
    ServiceResponse,
    Ticket,
)


class _LockedPlanCache(PlanCache):
    """A :class:`PlanCache` safe to share across worker threads."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._plock = threading.RLock()

    def get(self, key):  # type: ignore[override]
        with self._plock:
            return super().get(key)

    def put(self, key, entry):  # type: ignore[override]
        with self._plock:
            super().put(key, entry)


class _Flight:
    """One in-flight compile; followers wait on the leader's event."""

    __slots__ = ("event", "value", "error", "leader_id")

    def __init__(self, leader_id: int) -> None:
        self.event = threading.Event()
        self.value: CompiledTemplate | None = None
        self.error: BaseException | None = None
        #: request id of the leader — followers' timelines reference it
        self.leader_id = leader_id


class _Batch:
    """One coalesced batch: requests sharing a compiled plan execution.

    The worker that dequeued the leader pulls every *compatible* queued
    request (same batch key: template, device, options, mode, host)
    within the coalescing window and processes them as one unit:
    the leader compiles (or hits the cache) once, followers reuse the
    compiled plan directly — and, for ``compile``/``simulate`` requests,
    the result value itself — with ``batched_with``/``deduped_from``
    provenance on every response.
    """

    __slots__ = ("ids", "leader_id", "compiled", "shared_value", "error")

    def __init__(self, ids: tuple[int, ...], leader_id: int) -> None:
        self.ids = ids
        self.leader_id = leader_id
        self.compiled: CompiledTemplate | None = None
        #: the leader's result value, reusable verbatim by followers
        #: (compile and simulate modes only — execute inputs differ)
        self.shared_value: Any = None
        self.error: BaseException | None = None


class ExecutionService:
    """Accepts template requests concurrently; see module docstring.

    Usage::

        with ExecutionService(ServiceConfig(workers=8)) as svc:
            tickets = [svc.submit(req) for req in requests]
            responses = [t.result(timeout=60) for t in tickets]

    ``clock`` and ``sleep`` are injectable for deterministic tests.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        plan_cache: PlanCache | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=time.perf_counter)
        # Merged request spans: the most recent ``telemetry_events`` only.
        self.tracer.spans = deque(maxlen=self.config.telemetry_events)
        self.events = EventLog(capacity=self.config.telemetry_events)
        self._latency_window = SlidingWindow(self.config.window_seconds)
        self._slo = SloTracker(
            self.config.slo_objectives or default_objectives(),
            window_seconds=self.config.window_seconds,
        )
        self._alerts = AlertEngine(self.config.alert_rules)
        self._alert_lock = threading.Lock()
        self.flight: FlightRecorder | None = None
        if self.config.flight_dir and self.events.enabled:
            # Crash-safe tee: every published event is journaled to disk
            # before emit() returns, so a SIGKILLed shard leaves a
            # readable black box behind (repro postmortem).
            self.flight = FlightRecorder(
                journal_dir(self.config.flight_dir, self.config.shard_label),
                segment_bytes=self.config.flight_segment_bytes,
                max_bytes=self.config.flight_max_bytes,
            )
            self.flight.attach(self.events)
        self._status_server: StatusServer | None = None
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._queue: deque[Ticket] = deque()
        self._flights: dict[str, _Flight] = {}
        self._closed = False
        self._ids = itertools.count(1)
        self._in_flight = 0  # tickets a worker holds
        self._hits: set[Ticket] = set()  # on submitting threads
        #: (counters, wait, service seconds) per completed request,
        #: folded into ``metrics`` when read
        self._unfolded: deque[tuple[tuple[str, ...], float, float]] = deque()
        self._frameworks: dict[tuple[int, int], Framework] = {}
        if plan_cache is not None:
            self.plan_cache = plan_cache
        elif self.config.shared_cache_dir:
            # Cross-process tier: shared with sibling shard processes
            # (stampede-protected, internally thread-safe).
            self.plan_cache = SharedPlanCache(
                self.config.shared_cache_dir,
                max_entries=self.config.plan_cache_entries,
            )
        else:
            self.plan_cache = _LockedPlanCache(
                max_entries=self.config.plan_cache_entries
            )
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-svc-{i}", daemon=True
            )
            for i in range(self.config.workers)
        ]
        for t in self._workers:
            t.start()

    # -- lifecycle -------------------------------------------------------
    def __enter__(self) -> "ExecutionService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self, *, cancel_pending: bool = False) -> None:
        """Stop accepting work; drain (or cancel) the queue; join workers."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            if cancel_pending:
                while self._queue:
                    ticket = self._queue.popleft()
                    self._finish_unstarted(ticket, RequestStatus.CANCELLED)
                self.metrics.gauge("service.queue_depth").set(0)
            self._cv.notify_all()
        for t in self._workers:
            t.join()
        with self._cv:
            while self._in_flight or self._hits:
                self._cv.wait()
        if self._status_server is not None:
            self._status_server.close()
            self._status_server = None
        # The clean-shutdown marker: a journal ending without one of
        # these is a crash, and post-mortems say so.
        self.events.emit("service.close", shard=self.config.shard_label)
        if self.flight is not None:
            self.flight.close()

    # -- submission ------------------------------------------------------
    def submit(self, request: ServiceRequest | None = None, /) -> Ticket:
        """Admit one :class:`ServiceRequest`; returns its :class:`Ticket`
        (already resolved for a compile whose plan is cached).

        Raises :class:`QueueFullError` when the bounded queue is at
        capacity (explicit rejection — callers decide whether to back
        off or shed load) and :class:`ServiceClosedError` after
        ``close()``.
        """
        from .submitter import require_request

        return self._admit(
            require_request("ExecutionService.submit", request)
        )

    def _admit(self, request: ServiceRequest) -> Ticket:
        """``submit()`` proper, once the request is validated."""
        now = self._clock()
        options = request.compile_options(self.config.pb_max_ops)
        key = plan_key(request.template, request.device, options)
        if (
            request.mode == "compile"
            and self.config.batch_window <= 0
            and not self._closed
            and len(self._queue) < self.config.max_queue_depth
            and self.plan_cache.load(key)
        ):
            return self._serve_hit(self._ticket(request, now, options, key))
        with self._cv:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if len(self._queue) >= self.config.max_queue_depth:
                self.metrics.counter("service.rejected").inc()
                self.events.emit(
                    "service.reject",
                    reason="queue_full",
                    queue_depth=len(self._queue),
                    label=request.label,
                )
                raise QueueFullError(
                    f"queue depth {len(self._queue)} at configured limit "
                    f"{self.config.max_queue_depth}; retry with backoff"
                )
            ticket = self._ticket(request, now, options, key)
            ticket._cancel_hook = self._cancel
            self.metrics.counter("service.submitted").inc()
            self._queue.append(ticket)
            self.metrics.gauge("service.queue_depth").set(len(self._queue))
            self._admitted(ticket)
            # notify_all: with batching enabled, a gathering worker also
            # waits on this condition — a single notify could wake it
            # instead of an idle worker and delay an incompatible request
            # by a full batch window.
            self._cv.notify_all()
        return ticket

    def _ticket(self, request: ServiceRequest, now: float,
                options: CompileOptions, key: str) -> Ticket:
        deadline = request.deadline
        if deadline is None:
            deadline = self.config.default_deadline
        return Ticket(id=next(self._ids), request=request, submitted_at=now,
                      deadline_at=None if deadline is None else now + deadline,
                      _options=options, _key=key)

    def _admitted(self, ticket: Ticket) -> None:
        req = ticket.request
        self.events.emit("service.admit", request_id=ticket.id, label=req.label,
                         mode=req.mode, planner=req.planner,
                         queue_depth=len(self._queue))

    def submit_all(self, requests: list[ServiceRequest]) -> list[Ticket]:
        """Submit a batch; admission is all-or-error per request."""
        return [self.submit(r) for r in requests]

    def _cancel(self, ticket: Ticket) -> bool:
        with self._cv:
            try:
                self._queue.remove(ticket)
            except ValueError:
                return False  # already dequeued (running or done)
            self.metrics.gauge("service.queue_depth").set(len(self._queue))
            self._finish_unstarted(ticket, RequestStatus.CANCELLED)
            return True

    def _finish_unstarted(self, ticket: Ticket, status: RequestStatus) -> None:
        self.metrics.counter(f"service.{status.value}").inc()
        self.events.emit(
            "service.done",
            request_id=ticket.id,
            status=status.value,
            started=False,
        )
        ticket._resolve(
            ServiceResponse(
                request_id=ticket.id,
                label=ticket.request.label,
                status=status,
                error=f"request {status.value} before starting",
                wait_seconds=self._clock() - ticket.submitted_at,
            )
        )

    # -- introspection ---------------------------------------------------
    def metrics_snapshot(self) -> dict[str, Any]:
        """JSON-ready snapshot of every service and substrate metric."""
        with self._lock:
            self._fold()
            return self.metrics.snapshot()

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- live telemetry --------------------------------------------------
    def request_timeline(self, request_id: int) -> list[TelemetryEvent]:
        """One request's end-to-end event trace, in emission order.

        Covers every stage that executed for the request — admission,
        dequeue, plan-cache lookups, compile, retries, simulated
        execution, completion — because each worker binds the event log
        to the request id it is processing.  Empty if the id is unknown
        or its events have aged out of the ring.
        """
        return self.events.events(request_id=request_id)

    def request_chrome_trace(self, request_id: int) -> list[dict[str, Any]]:
        """The timeline as one Chrome-trace / Perfetto track."""
        return timeline_to_chrome(self.request_timeline(request_id))

    def live_snapshot(self) -> dict[str, Any]:
        """JSON-ready operational snapshot: the ``GET /slo`` payload.

        Rolling-window latency percentiles and throughput, SLO
        error-budget accounting, queue/cache occupancy, event-ring
        health, and the per-shard breakdown (one in-process shard today;
        the list shape is the contract multi-process shards will extend).
        """
        with self._lock:
            self._fold()
            queue_depth = len(self._queue)
            in_flight = self._in_flight + len(self._hits)
            closed = self._closed
            counters = {
                name: c.value
                for name, c in sorted(self.metrics.counters.items())
                if name.startswith("service.")
            }
        cache_stats = self._cache_stats()
        with self._alert_lock:
            if self._alerts:
                # re-evaluate at snapshot time so an idle service still
                # resolves alerts once traffic ages out of the window
                self._alerts.evaluate(
                    self._latency_window.snapshot(),
                    self._slo.snapshot(),
                    event_log=self.events,
                )
            alert_snap = self._alerts.snapshot()
        shard = {
            "shard": self.config.shard_label, "alive": True,
            "workers": len(self._workers), "queue_depth": queue_depth,
            "in_flight": in_flight, "plan_cache": cache_stats,
            "window": self._latency_window.snapshot(),
        }
        snap = {
            "closed": closed, "queue_depth": queue_depth, "in_flight": in_flight,
            "workers": len(self._workers), "counters": counters,
            "window": shard["window"], "slo": self._slo.snapshot(),
            "alerts": alert_snap, "plan_cache": cache_stats,
            "events": self.events.stats(), "shards": [shard],
        }
        if self.flight is not None:
            snap["flight"] = {
                "dir": self.flight.directory,
                **self.flight.stats(),
            }
        return snap

    def prom_text(self) -> str:
        """Prometheus text exposition (the ``GET /metrics`` payload)."""
        out = PromText()
        out.registry(self.metrics_snapshot())
        out.summary("service.latency_seconds", self._latency_window.snapshot(),
                    help_text="End-to-end request latency over the rolling window")
        stats = self._cache_stats()
        out.counter("plancache.hits", stats["hits"], help_text="Plan-cache memory-tier hits")
        out.counter("plancache.disk_hits", stats["disk_hits"])
        out.counter("plancache.misses", stats["misses"])
        out.gauge("plancache.entries", stats["entries"])
        out.event_log(self.events.stats())
        with self._alert_lock:
            alert_snap = self._alerts.snapshot()
        out.gauge("alerts.active", len(alert_snap["active"]),
                  help_text="Alert rules currently firing")
        out.counter("alerts.fired", alert_snap["fired_total"],
                    help_text="Alert firing transitions since start")
        for obj in self._slo.snapshot()["objectives"]:
            base = f"slo.{obj['name']}"
            out.gauge(f"{base}.compliance", obj["compliance"])
            out.gauge(f"{base}.budget_remaining", obj["budget_remaining_fraction"])
            out.gauge(f"{base}.breached", 1.0 if obj["breached"] else 0.0)
        return out.render()

    def _cache_stats(self) -> dict[str, Any]:
        """The plan-cache counters ``live_snapshot()`` and ``prom_text()``
        report."""
        return self.plan_cache.stats()

    def _health(self) -> dict[str, Any]:
        with self._lock:
            return {
                "ok": not self._closed,
                "closed": self._closed,
                "queue_depth": len(self._queue),
                "in_flight": self._in_flight + len(self._hits),
                "workers": len(self._workers),
            }

    def serve_status(
        self, *, host: str = "127.0.0.1", port: int = 0
    ) -> StatusServer:
        """Start the HTTP status endpoint (``/metrics``, ``/slo``,
        ``/requests``, ``/healthz``) on a daemon thread.

        ``port=0`` binds an ephemeral port; read it back from the
        returned server's ``.port``.  The server is owned by the
        service and shut down by ``close()``.
        """
        if self._status_server is not None:
            raise RuntimeError("status server already running")
        self._status_server = StatusServer(
            metrics=self.prom_text,
            slo=self.live_snapshot,
            requests=lambda request_id, limit: self.events.to_ndjson(
                request_id=request_id, limit=limit
            ),
            health=self._health,
            host=host,
            port=port,
        )
        return self._status_server

    # -- worker loop -----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if not self._queue:
                    return  # closed and drained
                ticket = self._queue.popleft()
                self.metrics.gauge("service.queue_depth").set(len(self._queue))
                self._in_flight += 1
                self.metrics.gauge("service.in_flight").set(self._in_flight)
            tickets = [ticket]
            if self.config.batch_window > 0:
                tickets += self._gather_batch(ticket)
            batch: _Batch | None = None
            if len(tickets) > 1:
                batch = _Batch(
                    ids=tuple(t.id for t in tickets), leader_id=ticket.id
                )
                self.metrics.counter("service.batches").inc()
                self.metrics.histogram("service.batch_size").observe(
                    len(tickets)
                )
            try:
                for t in tickets:
                    self._run(t, batch)
            finally:
                with self._cv:
                    self._in_flight -= 1
                    self.metrics.gauge("service.in_flight").set(self._in_flight)
                    if self._closed and not self._in_flight:
                        self._cv.notify_all()  # close() waits for this

    def _run(self, ticket: Ticket, batch: _Batch | None = None) -> None:
        """Serve one dequeued ticket to its response."""
        # The ambient bind is what correlates everything below —
        # Framework.compile, PlanCache, SimRuntime — to this request.
        try:
            with bind(self.events, ticket.id):
                self._process(ticket, batch=batch)
        except BaseException as exc:
            self._fail(ticket, exc)
            if not isinstance(exc, Exception):
                raise  # an interrupt or exit

    def _fail(self, ticket: Ticket, exc: BaseException,
              counted: tuple[str, ...] = ()) -> None:
        """Resolve ``ticket`` FAILED: a request must never die silently.
        A ServiceError (a dead fleet worker) says itself what failed."""
        error = str(exc) if isinstance(exc, ServiceError) else (
            f"internal: {type(exc).__name__}: {exc}")
        self._record_done(ticket, ServiceResponse(
            request_id=ticket.id, label=ticket.request.label,
            status=RequestStatus.FAILED, error=error), counted)

    # -- the resident hit ------------------------------------------------
    def _serve_hit(self, ticket: Ticket) -> Ticket:
        """Serve a compile whose plan is resident, on the submitting
        thread: what a worker would make of it, without the queue, a
        service lock, an Event or a Tracer.  ``close()`` sets ``_closed``
        before it reads ``_hits``, and a hit joins ``_hits`` before it
        reads ``_closed``: either close() waits for it, or it is refused
        before its first event."""
        self._hits.add(ticket)
        req, rid, events, opts = ticket.request, ticket.id, self.events, ticket._options
        counted: tuple[str, ...] = ("service.submitted",)
        try:
            if self._closed:
                raise ServiceClosedError("service is closed")
            try:
                self._admitted(ticket)
                ticket._status = RequestStatus.RUNNING
                start = self.tracer.now()
                events.emit("service.start", request_id=rid, label=req.label,
                            mode=req.mode, scheduler=opts.scheduler, wait_seconds=0.0)
                with bind(events, rid):
                    compiled = self._framework(req).compile(req.template, options=opts)
                end = self.tracer.now()
                cached = bool(compiled.metrics.get("counters", {}).get("plan_cache.hit"))
                events.emit("service.compile_done", request_id=rid,
                            planner=compiled.source, cached=cached, seconds=end - start)
                counted += (("service.dedupe_hits", "service.plan_cache_hits") if cached
                            else ("service.compiles",))  # evicted since the lookup
                key = ticket._key[:16]
                self.tracer.spans.extend((
                    Span("service.compile", start, end - start, "service.request",
                         {"scheduler": opts.scheduler, "key": key}),
                    Span("service.plan_cache_hit", end, 0.0, "service.request",
                         {"key": key}),
                    Span("service.request", start, self.tracer.now() - start, None, {
                        "id": rid, "label": req.label, "mode": req.mode,
                        "scheduler": opts.scheduler, "template": req.template.name,
                        "device": req.device.name, "status": "ok", "attempts": 1,
                        "retries": 0, "degraded": False, "deduped": cached}),
                ))
                self._record_done(ticket, ServiceResponse(
                    request_id=rid, label=req.label, status=RequestStatus.OK,
                    value=compiled, planner_used=compiled.source, attempts=1,
                    deduped=cached, service_seconds=self._clock() - ticket.submitted_at,
                ), counted)
            except BaseException as exc:
                self._fail(ticket, exc, counted)
                if not isinstance(exc, Exception):
                    raise  # e.g. Ctrl-C on the submitting thread
        finally:
            self._hits.discard(ticket)
            if self._closed:
                with self._cv:
                    self._cv.notify_all()  # close() waits for this
        return ticket

    def _framework(self, req: ServiceRequest) -> Framework:
        """The service's Framework for ``req``'s device and host, kept
        (so it holds both objects, and their ids stay theirs)."""
        key = (id(req.device), id(req.host))
        fw = self._frameworks.get(key)
        if fw is None:
            if len(self._frameworks) >= 64:
                self._frameworks.clear()
            fw = self._frameworks[key] = Framework(
                req.device, host=req.host, plan_cache=self.plan_cache)
        return fw

    def _ticket_batch_key(self, ticket: Ticket) -> tuple:
        """The coalescing key: requests sharing it can share one batched
        plan execution — the compile key plus mode and host."""
        return ticket._key, ticket.request.mode, ticket.request.host

    def _gather_batch(self, leader: Ticket) -> list[Ticket]:
        """Coalesce queued requests compatible with ``leader``.

        Waits up to ``config.batch_window`` seconds for more compatible
        arrivals (bounded by ``config.batch_max``), removing gathered
        tickets from the queue — they are now owned by this worker and
        processed on the leader's compiled plan.
        """
        key = self._ticket_batch_key(leader)
        window_end = self._clock() + self.config.batch_window
        gathered: list[Ticket] = []
        limit = self.config.batch_max - 1
        with self._cv:
            while True:
                for t in list(self._queue):
                    if len(gathered) >= limit:
                        break
                    if self._ticket_batch_key(t) == key:
                        self._queue.remove(t)
                        gathered.append(t)
                self.metrics.gauge("service.queue_depth").set(
                    len(self._queue)
                )
                if len(gathered) >= limit or self._closed:
                    break
                remaining = window_end - self._clock()
                if remaining <= 0:
                    break
                self._cv.wait(remaining)
        return gathered

    def _process(self, ticket: Ticket, batch: _Batch | None = None) -> None:
        req = ticket.request
        start = self._clock()
        wait = start - ticket.submitted_at
        ticket._status = RequestStatus.RUNNING
        tracer = Tracer(clock=time.perf_counter)
        response = ServiceResponse(
            request_id=ticket.id,
            label=req.label,
            status=RequestStatus.FAILED,
            wait_seconds=wait,
        )
        scheduler = ticket._options.scheduler
        degraded = False
        publish(
            "service.start",
            label=req.label,
            mode=req.mode,
            scheduler=scheduler,
            wait_seconds=wait,
        )
        if batch is not None:
            response.batched_with = tuple(
                i for i in batch.ids if i != ticket.id
            )
            if ticket.id == batch.leader_id:
                publish(
                    "service.batch",
                    size=len(batch.ids),
                    batched_with=list(response.batched_with),
                )
            else:
                publish(
                    "service.batch_join",
                    leader_request_id=batch.leader_id,
                )
        with tracer.span(
            "service.request",
            id=ticket.id,
            label=req.label,
            mode=req.mode,
            scheduler=scheduler,
            template=req.template.name,
            device=req.device.name,
        ) as root:
            # Deadline gate: an already-expired request is degraded to
            # the heuristic planner (if allowed) or rejected — loudly.
            if ticket.deadline_at is not None and start > ticket.deadline_at:
                degraded = self._degrade(ticket, tracer, "deadline_expired")
                if not degraded:
                    response.status = RequestStatus.EXPIRED
                    response.error = (
                        f"deadline expired {start - ticket.deadline_at:.3f}s "
                        f"before the request was dequeued"
                    )
                    root.set(status=response.status.value)
                    self.tracer.merge(tracer)
                    self._record_done(ticket, response)
                    return
            self._attempt_loop(ticket, response, degraded, tracer, batch=batch)
            root.set(
                status=response.status.value,
                attempts=response.attempts,
                retries=response.retries,
                degraded=response.degraded,
                deduped=response.deduped,
            )
        response.service_seconds = self._clock() - start
        self.tracer.merge(tracer)
        self._record_done(ticket, response)

    def _attempt_loop(
        self,
        ticket: Ticket,
        response: ServiceResponse,
        degraded: bool,
        tracer: Tracer,
        batch: _Batch | None = None,
    ) -> None:
        req = ticket.request
        retry = self.config.retry
        injector: FaultInjector | None = None
        if self.config.fault_spec is not None and req.mode == "execute":
            # One injector shared across retries: each attempt draws a
            # fresh slice of the decision stream (transient semantics).
            injector = FaultInjector(self.config.fault_spec)
        while True:
            response.attempts += 1
            try:
                compiled, value, deduped, deduped_from = self._perform(
                    ticket, degraded, injector, tracer, batch=batch
                )
                response.status = RequestStatus.OK
                response.value = value
                response.planner_used = compiled.source + (
                    "-degraded" if degraded else ""
                )
                response.degraded = degraded
                response.deduped = response.deduped or deduped
                if deduped_from is not None:
                    response.deduped_from = deduped_from
                return
            except TransientFault as fault:
                self.metrics.counter("service.faults").inc()
                if response.attempts >= retry.max_attempts:
                    response.status = RequestStatus.FAILED
                    response.error = (
                        f"gave up after {response.attempts} attempts: {fault}"
                    )
                    return
                backoff = retry.backoff(response.attempts)
                if (
                    ticket.deadline_at is not None
                    and self._clock() + backoff > ticket.deadline_at
                ):
                    # Deadline pressure mid-retry: drop to the cheap
                    # heuristic plan if we still can, else expire loudly.
                    if degraded or not self._degrade(
                        ticket, tracer, "deadline_pressure"
                    ):
                        response.status = RequestStatus.EXPIRED
                        response.error = (
                            f"deadline would expire during the "
                            f"{backoff * 1e3:.1f} ms backoff after "
                            f"attempt {response.attempts}: {fault}"
                        )
                        return
                    degraded = True
                response.retries += 1
                self.metrics.counter("service.retries").inc()
                self.metrics.histogram("service.backoff_seconds").observe(
                    backoff
                )
                tracer.event(
                    "service.retry",
                    attempt=response.attempts,
                    backoff_seconds=backoff,
                    fault=str(fault),
                )
                publish(
                    "service.retry",
                    attempt=response.attempts,
                    backoff_seconds=backoff,
                    fault=str(fault),
                )
                self._sleep(backoff)

    def _degrade(self, ticket: Ticket, tracer: Tracer, reason: str) -> bool:
        """Whether a late request drops to its heuristic scheduler rather
        than expire (announced if so): only a PB compile has one."""
        if not self.config.degrade_on_deadline or ticket._options.scheduler != "pb":
            return False
        tracer.event("service.degrade", reason=reason)
        publish("service.degrade", reason=reason)
        return True

    # -- the work itself -------------------------------------------------
    def _perform(
        self,
        ticket: Ticket,
        degraded: bool,
        injector: FaultInjector | None,
        tracer: Tracer,
        batch: _Batch | None = None,
    ) -> tuple[CompiledTemplate, Any, bool, int | None]:
        """Run one attempt; returns (compiled, value, deduped,
        deduped_from) — ``deduped_from`` is the leader's request id when
        this request joined an in-flight compile or a batch, so its
        telemetry timeline points at the request whose compile actually
        produced the plan.

        Single-flight and batching decide whether this request compiles,
        keyed on the content-addressed compile key; the work itself is
        one :meth:`_call`.
        """
        req, request_id = ticket.request, ticket.id
        opts, key = ticket._options, ticket._key
        if degraded:
            # The request's own heuristic scheduler (dfs where it named pb).
            own = (req.options or CompileOptions()).scheduler
            opts = replace(opts, scheduler="dfs" if own == "pb" else own)
            key = plan_key(req.template, req.device, opts)
            self.metrics.counter("service.degraded").inc()
        batch_leader = batch if batch and request_id == batch.leader_id else None
        if batch is not None and batch_leader is None:
            # A batch follower: its leader already compiled (or failed) on
            # this very worker thread, so the plan is taken straight off
            # the batch — no locks, no flights.
            if batch.error is not None:
                raise batch.error
            compiled = batch.compiled
            if compiled is not None:
                self.metrics.counter("service.dedupe_hits").inc()
                self.metrics.counter("service.batch_joins").inc()
                tracer.event(
                    "service.batch_join", leader_request_id=batch.leader_id
                )
                publish(
                    "service.dedupe_join",
                    leader_request_id=batch.leader_id,
                    via="batch",
                )
                if req.mode == "compile":
                    value = compiled
                elif req.mode == "simulate" and batch.shared_value is not None:
                    # One batched plan execution: the batch key pins
                    # template, device, options and host, so the
                    # leader's timing is this request's.
                    tracer.event("service.batch_shared_value")
                    value = batch.shared_value
                else:
                    value = self._call(
                        ticket, opts, key, compiled, injector, tracer, None
                    )
                return compiled, value, True, batch.leader_id
            # The leader expired before it compiled: compile independently.
        with self._lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = _Flight(leader_id=request_id)
                self._flights[key] = flight
        assert flight is not None
        if leader:
            deduped, deduped_from = False, None

            def landed(compiled: CompiledTemplate, seconds: float) -> None:
                """Account the compile and release the flight — as soon
                as the plan reaches this process."""
                nonlocal deduped
                counters = compiled.metrics.get("counters", {})
                deduped = cached = bool(counters.get("plan_cache.hit", 0))
                if cached:
                    self.metrics.counter("service.dedupe_hits").inc()
                    self.metrics.counter("service.plan_cache_hits").inc()
                    tracer.event("service.plan_cache_hit", key=key[:16])
                else:
                    self.metrics.counter("service.compiles").inc()
                publish(
                    "service.compile_done",
                    planner=compiled.source,
                    cached=cached,
                    seconds=seconds,
                )
                flight.value = compiled
                if batch_leader is not None:
                    batch_leader.compiled = compiled
                self._land(key, flight)

            try:
                value = self._call(
                    ticket, opts, key, None, injector, tracer, landed
                )
            except BaseException as exc:
                if flight.value is None:  # the compile itself failed
                    flight.error = exc
                    if batch_leader is not None:
                        batch_leader.error = exc
                    self._land(key, flight)
                raise
            compiled = flight.value
        else:
            # Join the in-flight compile: its leader is guaranteed to be
            # running on another worker (FIFO dequeue), so this wait is
            # bounded by one compile, never by queued work.
            self.metrics.counter("service.dedupe_hits").inc()
            self.metrics.counter("service.singleflight_joins").inc()
            tracer.event("service.singleflight_join", key=key[:16])
            publish(
                "service.dedupe_join",
                key=key[:16],
                leader_request_id=flight.leader_id,
            )
            flight.event.wait()
            if flight.error is not None:
                if batch_leader is not None:
                    batch_leader.error = flight.error
                raise flight.error
            compiled = flight.value
            assert compiled is not None
            if batch_leader is not None:
                batch_leader.compiled = compiled
            value = compiled if req.mode == "compile" else self._call(
                ticket, opts, key, compiled, injector, tracer, None
            )
            deduped, deduped_from = True, flight.leader_id
        if batch_leader is not None and req.mode != "execute":
            # reusable verbatim by the followers (execute inputs differ)
            batch_leader.shared_value = value
        return compiled, value, deduped, deduped_from

    def _land(self, key: str, flight: _Flight) -> None:
        """End ``flight``: later requests for ``key`` go to the plan
        cache, and its followers wake."""
        with self._lock:
            self._flights.pop(key, None)
        flight.event.set()

    def _call(
        self,
        ticket: Ticket,
        opts: CompileOptions,
        key: str,
        compiled: CompiledTemplate | None,
        injector: FaultInjector | None,
        tracer: Tracer,
        landed: Callable[[CompiledTemplate, float], None] | None,
    ) -> Any:
        """One attempt's work, and the one place work runs: compile
        ``opts`` (keyed ``key``) unless ``compiled`` is given, handing
        the plan to ``landed``; then the request's mode on the plan.
        Returns the response value.  The fleet sends this call to a
        worker process."""
        req = ticket.request
        if compiled is None:
            compiled = self._compile(req, opts, key, tracer, landed)
        if req.mode == "compile":
            return compiled
        metrics = MetricsRegistry() if req.mode == "execute" else None
        try:
            with tracer.span(f"service.{req.mode}") as sp:
                value = run_request(req, compiled, injector, metrics)
        finally:
            if metrics is not None:
                with self._lock:
                    self.metrics.merge(metrics)
        publish(f"service.{req.mode}_done", seconds=sp.duration)
        return value

    def _compile(
        self,
        req: ServiceRequest,
        opts: CompileOptions,
        key: str,
        tracer: Tracer,
        landed: Callable[[CompiledTemplate, float], None],
    ) -> CompiledTemplate:
        """Compile in this process: a plan-cache hit when the plan is
        resident."""
        with tracer.span(
            "service.compile", scheduler=opts.scheduler, key=key[:16]
        ) as sp:
            compiled = self._framework(req).compile(req.template, options=opts)
        landed(compiled, sp.duration)
        return compiled

    # -- bookkeeping -----------------------------------------------------
    def _record_done(self, ticket: Ticket, response: ServiceResponse,
                     counted: tuple[str, ...] = ()) -> None:
        """Account ``response`` (and the ``counted`` counters) and resolve
        ``ticket``, without a lock: counters wait in ``_unfolded``."""
        status = f"service.{response.status.value}"
        counted += (status, "service.completed") if response.ok else (status,)
        self._unfolded.append((counted, response.wait_seconds, response.service_seconds))
        if len(self._unfolded) >= 1024:  # bounded when nobody reads,
            with self._lock:  # a few at a time: no request pays for all
                self._fold(64)
        latency = response.wait_seconds + response.service_seconds
        self._latency_window.observe(latency)
        self._slo.record(ok=response.ok, latency=latency)
        if self._alerts:  # rule-free configs skip the snapshots entirely
            with self._alert_lock:
                self._alerts.evaluate(
                    self._latency_window.snapshot(),
                    self._slo.snapshot(),
                    event_log=self.events,
                )
        self.events.emit(
            "service.done",
            request_id=ticket.id,
            status=response.status.value,
            planner=response.planner_used,
            attempts=response.attempts,
            retries=response.retries,
            deduped=response.deduped,
            batched=bool(response.batched_with),
            seconds=response.service_seconds,
        )
        ticket._resolve(response)

    def _fold(self, most: int | None = None) -> None:
        """Fold (``most`` of) ``_unfolded`` into ``metrics``; the caller
        holds ``_lock``."""
        pending, tally = self._unfolded, {}
        n = len(pending) if most is None else min(most, len(pending))
        if not n:
            return
        waits = self.metrics.histogram("service.wait_seconds")
        services = self.metrics.histogram("service.service_seconds")
        for _ in range(n):
            counted, wait, service = pending.popleft()
            for name in counted:
                tally[name] = tally.get(name, 0) + 1
            waits.observe(wait)
            services.observe(service)
        for name, count in tally.items():
            self.metrics.counter(name).inc(count)


def run_request(
    request: ServiceRequest,
    compiled: CompiledTemplate,
    injector: FaultInjector | None = None,
    metrics: MetricsRegistry | None = None,
) -> Any:
    """A ``simulate`` or ``execute`` request's run on its compiled plan.

    An execute gets a fresh runtime per attempt, recording into
    ``metrics``, so a failed attempt leaves no residue; ``injector``
    survives across attempts (transient faults, new decisions each
    retry).
    """
    if request.mode == "simulate":
        return simulate_plan(
            compiled.plan, compiled.graph, request.device, request.host
        )
    runtime = SimRuntime(
        request.device, request.host, metrics=metrics,
        fault_injector=injector,
    )
    return execute_plan(compiled.plan, compiled.graph, runtime, request.inputs)


__all__ = ["ExecutionService", "run_request"]
