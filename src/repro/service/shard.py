"""The multi-process fleet: one service over a pool of worker processes.

:class:`ShardedExecutionService` *is* an
:class:`~repro.service.ExecutionService` — the fleet's only one, in the
router process — whose :meth:`~ExecutionService._call`, the one place
work runs, is sent to a pool of worker processes
(:mod:`repro.service.worker`).  Admission, single-flight, batching,
deadlines, retries, degradation and all telemetry therefore happen once,
in the router, in the caller's id space; a worker answers one pure call
(compile or cache hit, then the request's ``simulate`` / ``execute``)
and does nothing else.

The fleet shares one cross-process plan-cache directory
(:class:`repro.core.plancache.SharedPlanCache`): a plan any worker
compiled is a disk hit for the router and every other worker, with
stampede protection when several processes cold-start the same key at
once.  A ``compile`` whose plan is resident — in the router's memory
tier or on that disk — is a lookup, not work: the router serves it on
the submitting thread, exactly as in process, and no frame is written.

A call that needs work is one frame each way.  It is routed by the
request's plan key over a consistent-hash ring
(:mod:`repro.service.hashring`) of the live workers, so a key's compile
and its later runs land on the worker whose memory tier holds the plan.
The router runs ``shards × workers`` threads and each worker process
``workers``, so up to that many calls are in flight.

Failure semantics: a worker that dies leaves the ring; the calls it was
serving fail with an explicit ``shard proc/N died (...)`` error naming
its exit status, and later calls go to the next live worker.
``submit()`` raises :class:`ShardDiedError` only when no worker is
alive.  With a ``flight_dir``, the router harvests a dead worker's
journal into a post-mortem.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import shutil
import tempfile
import threading
from concurrent.futures import Future
from typing import Any, Callable

from repro.core.framework import CompiledTemplate, CompileOptions
from repro.core.plancache import plan_key
from repro.gpusim.faults import FaultInjector
from repro.obs import Tracer
from repro.obs.flight import describe_exit, harvest_postmortem, journal_dir
from repro.obs.live import PromText, publish
from repro.service.config import ServiceConfig
from repro.service.hashring import HashRing
from repro.service.ipc import INTERNS_PER_PLAN, ROUTER_INTERNS, Channel
from repro.service.request import ServiceError, ServiceRequest, ServiceResponse, Ticket
from repro.service.service import ExecutionService
from repro.service.submitter import require_request


class ShardDiedError(ServiceError):
    """The worker process serving a call exited before answering it."""


class _Worker:
    """Router-side state for one worker process."""

    __slots__ = (
        "name", "process", "channel", "receiver", "alive", "dying",
        "calls", "plan_cache", "exit_code", "exit_detail",
    )

    def __init__(self, name: str, process: Any, channel: Channel) -> None:
        self.name = name
        self.process = process
        self.channel = channel
        self.receiver: threading.Thread | None = None
        self.alive = True
        self.dying = False
        #: request id -> the reply of each call in flight here: the
        #: worker's ``response``, or the error its death left (the
        #: router's lock guards it, like ``alive``)
        self.calls: dict[int, Future] = {}
        #: the worker's plan-cache counters, as of its latest reply
        self.plan_cache: dict[str, int] = {}
        #: how the worker process ended (filled in by _mark_dead)
        self.exit_code: int | None = None
        self.exit_detail: str = ""


class ShardedExecutionService(ExecutionService):
    """The router's service over ``shards`` worker processes.

    Worker processes are spawned immediately, each named ``proc/N``.
    Unless the config already names a ``shared_cache_dir``, the router
    creates a private directory for the fleet's cross-process plan
    cache and removes it on ``close()``.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        shards: int = 2,
        mp_context: Any = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        base = config or ServiceConfig()
        self._owns_cache_dir = base.shared_cache_dir is None
        if self._owns_cache_dir:
            cache_dir = tempfile.mkdtemp(prefix="repro-shard-cache-")
            base = dataclasses.replace(base, shared_cache_dir=cache_dir)
        ctx = mp_context or multiprocessing.get_context()
        self._pool: dict[str, _Worker] = {}
        self._live = shards
        self._stopping = False
        #: worker name -> post-mortem harvested from its journal at death
        self._postmortems: dict[str, dict[str, Any]] = {}
        #: request id -> why its OK reply came without its value
        self._notes: dict[int, str] = {}
        self.ring = HashRing()
        # Import here so the worker entry resolves identically under
        # fork and spawn.
        from repro.service.worker import shard_worker_main

        # Workers first: the router's threads must not be forked into them.
        for i in range(shards):
            name = f"proc/{i}"
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=shard_worker_main,
                args=(child_conn, dataclasses.replace(base, shard_label=name)),
                name=f"repro-shard-{i}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._pool[name] = _Worker(name, process, Channel(
                parent_conn,
                INTERNS_PER_PLAN * base.plan_cache_entries,
                ROUTER_INTERNS,
            ))
            self.ring.add(name)
        super().__init__(dataclasses.replace(
            base, workers=shards * base.workers, shard_label="router"
        ))
        for i, worker in enumerate(self._pool.values()):
            worker.receiver = threading.Thread(
                target=self._receiver_loop,
                args=(worker,),
                name=f"repro-shard-recv-{i}",
                daemon=True,
            )
            worker.receiver.start()

    @property
    def shard_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._pool))

    def close(self, *, cancel_pending: bool = False) -> None:
        """Drain (or cancel) the router's queue, then stop every worker
        process and release the fleet's resources."""
        super().close(cancel_pending=cancel_pending)
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        for worker in self._pool.values():
            try:
                worker.channel.send({"kind": "close"})
            except Exception:
                pass  # already gone; reap below
        for worker in self._pool.values():
            worker.process.join(timeout=10)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=10)
            try:
                worker.channel.conn.close()
            except Exception:
                pass
            if worker.receiver is not None:
                worker.receiver.join(timeout=10)
        if self._owns_cache_dir and self.config.shared_cache_dir:
            shutil.rmtree(self.config.shared_cache_dir, ignore_errors=True)

    # -- routing ---------------------------------------------------------
    def route_key(self, request: ServiceRequest) -> str:
        """The key a request is routed by: its plan key, the one
        admission computes and single-flight, batching and the plan
        cache use."""
        return plan_key(
            request.template,
            request.device,
            request.compile_options(self.config.pb_max_ops),
        )

    def route(self, request: ServiceRequest) -> str:
        """Name of the live worker that would serve ``request``'s work."""
        key = self.route_key(request)
        with self._lock:
            return self.ring.route(key)

    # -- submission ------------------------------------------------------
    def submit(self, request: ServiceRequest | None = None, /) -> Ticket:
        """Admit one request, as in process; raises
        :class:`ShardDiedError` once no worker is alive."""
        if not self._live:
            raise self._no_worker()
        return self._admit(
            require_request("ShardedExecutionService.submit", request)
        )

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
        """The work, on a worker process, one frame each way — less the
        lookup of a plan resident here, served as in process."""
        req = ticket.request
        if compiled is None and self.plan_cache.load(key):
            compiled = self._compile(req, opts, key, tracer, landed)
        if compiled is not None and req.mode == "compile":
            return compiled
        reply = self._send_call(ticket.id, key, {
            "request": req,
            "options": opts,
            "injector": injector,
            "plan": compiled is None,
        })
        for kind, fields in reply["events"]:
            publish(kind, **fields)
        if compiled is None and reply["compiled"] is not None:
            compiled = reply["compiled"]
            landed(compiled, reply["compile_seconds"])
        if reply["metrics"] is not None:
            with self._lock:
                self.metrics.merge(reply["metrics"])
        if injector is not None:
            injector.adopt(reply["injector"])
        if reply["error"] is not None:
            raise reply["error"]
        if req.mode == "compile":
            return compiled
        publish(f"service.{req.mode}_done", seconds=reply["seconds"])
        if "note" in reply:
            self._notes[ticket.id] = reply["note"]
        return reply["value"]

    def _record_done(self, ticket: Ticket, response: ServiceResponse,
                     counted: tuple[str, ...] = ()) -> None:
        if note := self._notes.pop(ticket.id, None):
            response.error = note  # an OK reply whose value did not pickle
        super()._record_done(ticket, response, counted)

    # -- the worker pool -------------------------------------------------
    def _send_call(
        self, request_id: int, key: str, call: dict[str, Any]
    ) -> dict[str, Any]:
        """Send one call to ``key``'s live worker; block for its reply."""
        slot: Future = Future()
        with self._lock:
            if not self._live:
                raise self._no_worker()
            worker = self._pool[self.ring.route(key)]
            worker.calls[request_id] = slot
        try:
            worker.channel.send({"kind": "submit", "id": request_id, **call})
        except OSError as exc:
            self._mark_dead(worker, reason=str(exc))
        except BaseException:
            with self._lock:
                worker.calls.pop(request_id, None)
            raise
        return slot.result()

    def _no_worker(self) -> ShardDiedError:
        dead = "; ".join(
            f"shard {w.name} died ({w.exit_detail})"
            for w in self._pool.values()
        )
        return ShardDiedError(f"no live worker: {dead}")

    def _receiver_loop(self, worker: _Worker) -> None:
        while True:
            try:
                message = worker.channel.recv()
            except Exception:  # EOF, a dead pipe or a corrupt frame
                break
            with self._lock:
                slot = worker.calls.pop(message["id"], None)
                worker.plan_cache = message["plan_cache"]
            if slot is not None:
                slot.set_result(message)
        self._mark_dead(worker, reason="pipe closed")

    def _mark_dead(self, worker: _Worker, *, reason: str) -> None:
        """Take ``worker`` out of the ring and fail the calls it was
        serving, naming its exit status."""
        with self._lock:
            if worker.dying:
                return
            worker.dying = True
            stopping = self._stopping
        # Reap the exit status before anyone reads it; a crashed process
        # joins at once, and even the slow path is bounded.  Calls routed
        # here meanwhile are failed below with the rest.
        try:
            worker.process.join(timeout=2)
        except Exception:
            pass
        worker.exit_code = worker.process.exitcode
        worker.exit_detail = describe_exit(worker.exit_code)
        with self._lock:
            worker.alive = False
            self.ring.remove(worker.name)
            if not stopping:
                self._live -= 1
            orphaned, worker.calls = worker.calls, {}
        if not stopping:
            self._harvest(worker, orphaned_ids=sorted(orphaned))
        error = ShardDiedError(
            f"shard {worker.name} died ({reason}; {worker.exit_detail})"
        )
        for slot in orphaned.values():
            slot.set_exception(error)

    def _harvest(self, worker: _Worker, *, orphaned_ids: list[int]) -> None:
        """Synthesize the dead worker's post-mortem from its journal.

        Best-effort by design: crash forensics must never prevent the
        router from failing over.  Without a ``flight_dir`` there is no
        journal, and the post-mortem records only the exit status.
        """
        try:
            pm = harvest_postmortem(
                journal_dir(self.config.flight_dir, worker.name),
                shard=worker.name,
                exit_code=worker.exit_code,
                window_seconds=self.config.window_seconds,
            ) if self.config.flight_dir else {
                "shard": worker.name, "exit_code": worker.exit_code,
                "exit_detail": worker.exit_detail, "records": 0,
                "warnings": ["no flight_dir configured; no journal"],
            }
            pm["orphaned_global_ids"] = orphaned_ids
            with self._lock:
                self._postmortems[worker.name] = pm
        except Exception:
            pass

    # -- post-mortems ----------------------------------------------------
    def postmortem(self, shard_name: str) -> dict[str, Any] | None:
        """The post-mortem harvested when ``shard_name`` died, if any."""
        with self._lock:
            return self._postmortems.get(shard_name)

    # -- telemetry: the router's own, plus one row per worker ------------
    def _cache_stats(self) -> dict[str, Any]:
        """The router's plan-cache counters plus each worker's."""
        stats = dict(super()._cache_stats())
        with self._lock:
            workers = [w.plan_cache for w in self._pool.values()]
        for worker in workers:
            for name, value in worker.items():
                stats[name] = stats.get(name, 0) + value
        return stats

    def live_snapshot(self) -> dict[str, Any]:
        """The router service's snapshot, with one ``shards`` row per
        worker process."""
        snap = super().live_snapshot()
        rows = []
        with self._lock:
            for name in sorted(self._pool):
                w = self._pool[name]
                row: dict[str, Any] = {
                    "shard": name,
                    "alive": w.alive,
                    "workers": self.config.workers // len(self._pool),
                    "in_flight": len(w.calls),
                    "plan_cache": dict(w.plan_cache),
                    "exit_code": w.exit_code,
                    "exit_detail": w.exit_detail,
                }
                pm = self._postmortems.get(name)
                if pm is not None:
                    row["in_flight_at_death"] = len(pm.get("in_flight", []))
                    row["postmortem"] = pm.get("journal_dir")
                rows.append(row)
            snap["live_shards"] = self._live
        snap["shards"] = rows
        snap["shard_count"] = len(rows)
        return snap

    def prom_text(self) -> str:
        """The router service's exposition, plus the live worker count."""
        out = PromText()
        out.gauge("service.shards_live", self._live,
                  help_text="Fleet worker processes alive")
        return super().prom_text() + out.render()

    def _health(self) -> dict[str, Any]:
        health = super()._health()
        return {**health, "ok": health["ok"] and self._live > 0,
                "shards": len(self._pool), "live_shards": self._live}


__all__ = ["ShardDiedError", "ShardedExecutionService"]
