"""Sharded multi-process serving tier.

:class:`ShardedExecutionService` runs N worker *processes* (each a full
:class:`~repro.service.ExecutionService` — see
:mod:`repro.service.worker`) behind one router.  The fleet shares one
cross-process plan-cache directory
(:class:`repro.core.plancache.SharedPlanCache`), so a plan compiled on
any shard is a disk hit for every other process pointed at the
directory, with stampede protection when several shards cold-start the
same key at once.

A ``compile`` whose plan is resident — in the router's memory tier or
on that shared disk — is answered by the router itself, on the
submitting thread: the router owns an ``inline_only``
:class:`~repro.service.ExecutionService` on the same directory, which
runs the in-process hit path and declines everything else.  It never
compiles and never queues.  Every other submission is routed by its
content-addressed plan key over a consistent-hash ring
(:mod:`repro.service.hashring`).  Identical templates therefore always
land on the same shard, which is where single-flight dedupe and request
batching live — the router never needs a cross-process flight table.

The router mirrors the single-process service's surface — ``submit()``
returns a :class:`~repro.service.Ticket`, plus ``live_snapshot()`` /
``prom_text()`` / ``request_timeline()`` / ``serve_status()`` — so
callers and the CLI swap tiers without code changes.  Telemetry is
aggregated correctly, not averaged: fleet latency percentiles are
recomputed over the union of every shard's raw window samples
(:func:`repro.obs.live.merge_window_samples`) and SLO error budgets sum
good/bad counts (:func:`repro.obs.live.merge_slo_snapshots`); the
router's own service is merged in, and reported as ``router`` beside
the per-process ``shards``.

Request ids are fleet-global: the router assigns them and its own
service or a shard serves a request *under* that id, so responses,
their provenance fields (``deduped_from``, ``batched_with``), telemetry
events and the flight journal all speak the caller's ids and the router
keeps nothing about a request once its ticket resolves.

A request is one frame each way with no wait in between: admission is
decided at the router, which counts every shard's admitted-but-
unanswered requests against ``max_queue_depth``, and heavy objects cross
each pipe once (:class:`repro.service.ipc.Channel`).

Failure semantics: a shard process that dies mid-flight fails *only*
its own in-flight requests (each resolved ``FAILED`` with an explicit
``shard ... died`` error); the ring keeps routing the remaining shards.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import shutil
import tempfile
import threading
from typing import Any

from repro.core.plancache import plan_key
from repro.obs.flight import describe_exit, harvest_postmortem, journal_dir
from repro.obs.live import (
    PromText,
    StatusServer,
    TelemetryEvent,
    merge_alert_snapshots,
    merge_slo_snapshots,
    merge_window_samples,
)
from repro.service.config import ServiceConfig
from repro.service.hashring import HashRing
from repro.service.ipc import INTERNS_PER_PLAN, ROUTER_INTERNS, Channel
from repro.service.request import (
    QueueFullError,
    RequestStatus,
    ServiceClosedError,
    ServiceError,
    ServiceRequest,
    ServiceResponse,
    Ticket,
)
from repro.service.service import ExecutionService

#: seconds the router waits for a worker to ack one control frame
_RPC_TIMEOUT = 60.0


class ShardDiedError(ServiceError):
    """The shard owning this request exited before answering."""


class _Shard:
    """Router-side state for one worker process."""

    __slots__ = (
        "name", "process", "channel", "receiver", "alive",
        "unanswered", "exit_code", "exit_detail",
    )

    def __init__(self, name: str, process: Any, channel: Channel) -> None:
        self.name = name
        self.process = process
        self.channel = channel
        self.receiver: threading.Thread | None = None
        self.alive = True
        #: requests admitted to this shard and not yet answered (the
        #: router's lock guards it, like ``alive``)
        self.unanswered = 0
        #: how the worker process ended (filled in by _mark_dead)
        self.exit_code: int | None = None
        self.exit_detail: str = ""


class _Waiter:
    """One correlated reply slot of a control RPC."""

    __slots__ = ("shard", "event", "message")

    def __init__(self, shard: _Shard) -> None:
        self.shard = shard
        self.event = threading.Event()
        self.message: dict[str, Any] | None = None


class ShardedExecutionService:
    """A fleet of shard processes behind one service-shaped facade.

    ``shards`` worker processes are spawned immediately; each runs
    ``config`` (with its own ``shard_label`` of the form ``proc/N``).
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
        self.config = base
        self._ctx = mp_context or multiprocessing.get_context()
        self._lock = threading.Lock()
        self._closed = False
        self._next_id = itertools.count(1)
        #: global id -> (shard, Ticket) for in-flight requests
        self._pending: dict[int, tuple[_Shard, Ticket]] = {}
        #: submits refused at the router (the fleet's ``service.rejected``)
        self._rejected = 0
        #: rpc id -> _Waiter for control RPCs
        self._waiters: dict[int, _Waiter] = {}
        self._status_server: StatusServer | None = None
        #: answers every resident compile on the submitting thread; never
        #: compiles, never queues
        self._router = ExecutionService(
            dataclasses.replace(base, shard_label="router"), inline_only=True
        )
        self._shards: dict[str, _Shard] = {}
        #: shard name -> post-mortem harvested from its journal at death
        self._postmortems: dict[str, dict[str, Any]] = {}
        self.ring = HashRing()
        # Import here so the worker entry resolves identically under
        # fork and spawn.
        from repro.service.worker import shard_worker_main

        for i in range(shards):
            name = f"proc/{i}"
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            shard_config = dataclasses.replace(base, shard_label=name)
            process = self._ctx.Process(
                target=shard_worker_main,
                args=(child_conn, shard_config),
                name=f"repro-shard-{i}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            shard = _Shard(name, process, Channel(
                parent_conn,
                INTERNS_PER_PLAN * base.plan_cache_entries,
                ROUTER_INTERNS,
            ))
            shard.receiver = threading.Thread(
                target=self._receiver_loop,
                args=(shard,),
                name=f"repro-shard-recv-{i}",
                daemon=True,
            )
            self._shards[name] = shard
            self.ring.add(name)
            shard.receiver.start()

    # -- lifecycle -------------------------------------------------------
    def __enter__(self) -> "ShardedExecutionService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    @property
    def shard_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._shards))

    def close(self, *, cancel_pending: bool = False) -> None:
        """Drain every shard, stop their processes, release resources."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._router.close()
        for shard in self._shards.values():
            if not shard.alive:
                continue
            try:
                self._rpc(
                    shard,
                    {"kind": "close", "cancel_pending": cancel_pending},
                    expect="closed",
                )
            except (ShardDiedError, TimeoutError):
                pass  # already gone; reap below
        for shard in self._shards.values():
            try:
                shard.channel.conn.close()
            except Exception:
                pass
            shard.process.join(timeout=10)
            if shard.process.is_alive():  # pragma: no cover - stuck shard
                shard.process.terminate()
                shard.process.join(timeout=10)
            if shard.receiver is not None:
                shard.receiver.join(timeout=10)
        if self._status_server is not None:
            self._status_server.close()
            self._status_server = None
        if self._owns_cache_dir and self.config.shared_cache_dir:
            shutil.rmtree(self.config.shared_cache_dir, ignore_errors=True)

    # -- routing ---------------------------------------------------------
    def route_key(self, request: ServiceRequest) -> str:
        """The content-addressed key this request is routed by.

        Deliberately the *batch/dedupe* identity (template + device +
        resolved options + mode + host) so every request that could
        share one compiled plan lands on the same shard, where the
        in-process single-flight and batching tiers collapse them.
        """
        options = request.compile_options(self.config.pb_max_ops)
        return plan_key(
            request.template,
            request.device,
            options,
            kind="service-batch",
            extra={
                "planner": "pb" if options.scheduler == "pb" else "heuristic",
                "mode": request.mode,
                "host": request.host,
            },
        )

    def route(self, request: ServiceRequest) -> str:
        """Name of the shard that would serve ``request``."""
        return self.ring.route(self.route_key(request))

    # -- submission ------------------------------------------------------
    def submit(self, request: ServiceRequest | None = None, /) -> Ticket:
        """Answer or route one request; returns a fleet-global ticket.

        A compile whose plan is resident — in the router's memory tier
        or in the fleet's shared disk tier — is served by the router's
        own in-process service on this thread: the ticket comes back
        resolved and nothing crosses a pipe.  Every other request is
        routed, and admission is decided here, without a round trip: the
        router counts each shard's admitted-but-unanswered requests (queued
        *and* running — stricter than the in-process tier's "queued")
        and raises :class:`QueueFullError` when the owning shard is at
        ``max_queue_depth``; :class:`ServiceClosedError` and
        :class:`ShardDiedError` raise here too.  Otherwise one frame is
        written and the ticket returned; a response returns the credit.
        Returning does *not* mean the shard has admitted (or journalled)
        the request yet — the pipe is FIFO, so any control RPC
        (``live_snapshot()``) is a barrier for every earlier submit.
        ``submit()`` blocks only while the shard's pipe is full.
        """
        from .submitter import require_request

        request = require_request("ShardedExecutionService.submit", request)
        gid = next(self._next_id)
        ticket = self._router._admit(request, gid)
        if ticket is not None:
            return ticket
        shard = self._shards[self.route(request)]
        ticket = Ticket(
            id=gid,
            request=request,
            submitted_at=0.0,
            deadline_at=None,
        )
        limit = self.config.max_queue_depth
        with self._lock:
            if self._closed:
                raise ServiceClosedError("sharded service is closed")
            if not shard.alive:
                raise self._died(shard)
            if shard.unanswered >= limit:
                self._rejected += 1
                raise QueueFullError(
                    f"shard {shard.name} has {shard.unanswered} unanswered "
                    f"requests at configured limit {limit}; retry with "
                    f"backoff"
                )
            shard.unanswered += 1
            self._pending[gid] = (shard, ticket)
        # Outside the router lock: a full pipe blocks this caller only,
        # never the receiver thread that drains the other direction.
        try:
            self._send(shard, {"kind": "submit", "id": gid,
                               "request": request})
        except BaseException:
            self._answered(gid)
            raise
        return ticket

    def submit_all(self, requests: list[ServiceRequest]) -> list[Ticket]:
        return [self.submit(r) for r in requests]

    # -- receiver --------------------------------------------------------
    def _died(self, shard: _Shard) -> ShardDiedError:
        return ShardDiedError(
            f"shard {shard.name} died"
            + (f" ({shard.exit_detail})" if shard.exit_detail else "")
        )

    def _send(self, shard: _Shard, message: dict[str, Any]) -> None:
        try:
            shard.channel.send(message)
        except OSError as exc:
            self._mark_dead(shard, reason=str(exc))
            raise ShardDiedError(
                f"shard {shard.name} died: {exc}"
            ) from exc

    def _answered(self, gid: int) -> Ticket | None:
        """Forget one admitted request, returning its admission credit;
        ``None`` when it was already answered (or failed by a death)."""
        with self._lock:
            entry = self._pending.pop(gid, None)
            if entry is None:
                return None
            entry[0].unanswered -= 1
            return entry[1]

    def _receiver_loop(self, shard: _Shard) -> None:
        while True:
            try:
                message = shard.channel.recv()
            except Exception:  # EOF, a dead pipe or a corrupt frame
                break
            self._dispatch(shard, message)
        self._mark_dead(shard, reason="pipe closed")

    def _dispatch(self, shard: _Shard, message: dict[str, Any]) -> None:
        kind = message["kind"]
        gid = message.get("id", -1)
        if kind == "response":
            ticket = self._answered(gid)
            if ticket is not None:
                ticket._resolve(message["response"])
            return
        if kind == "error":
            # The shard refused (or choked on) a submit: that is the
            # request's answer, not a hang.
            ticket = self._answered(gid)
            if ticket is not None:
                ticket._resolve(ServiceResponse(
                    request_id=gid,
                    label=ticket.request.label,
                    status=RequestStatus.FAILED,
                    error=message.get("error", "shard rejected request"),
                ))
                return
        # *_result / closed / error replies to control RPCs
        with self._lock:
            waiter = self._waiters.get(gid)
        if waiter is not None:
            waiter.message = message
            waiter.event.set()

    def _mark_dead(self, shard: _Shard, *, reason: str) -> None:
        with self._lock:
            if not shard.alive:
                return
            shard.alive = False
            orphaned = [
                (gid, ticket)
                for gid, (owner, ticket) in list(self._pending.items())
                if owner is shard
            ]
            for gid, _ in orphaned:
                self._pending.pop(gid, None)
            shard.unanswered = 0
            waiters = [
                w for w in self._waiters.values() if w.shard is shard
            ]
            closed = self._closed
        # Reap the exit status outside the router lock; a crashed process
        # joins immediately, and even the slow path is bounded.
        try:
            shard.process.join(timeout=2)
        except Exception:
            pass
        shard.exit_code = shard.process.exitcode
        shard.exit_detail = describe_exit(shard.exit_code)
        detail = f"{reason}; {shard.exit_detail}"
        if not closed:
            self._harvest(shard, orphaned_ids=[gid for gid, _ in orphaned])
        for gid, ticket in orphaned:
            ticket._resolve(
                ServiceResponse(
                    request_id=gid,
                    label=ticket.request.label,
                    status=RequestStatus.FAILED,
                    error=f"shard {shard.name} died ({detail})",
                )
            )
        if not closed:
            # Unblock RPC callers waiting on this shard; their
            # timeout-free path is an error message, not a hang.
            for waiter in waiters:
                if not waiter.event.is_set():
                    waiter.message = {
                        "kind": "error",
                        "id": -1,
                        "error": f"shard {shard.name} died ({detail})",
                        "error_type": "ShardDiedError",
                    }
                    waiter.event.set()

    def _harvest(self, shard: _Shard, *, orphaned_ids: list[int]) -> None:
        """Synthesize the dead shard's post-mortem from its journal.

        Best-effort by design: crash forensics must never prevent the
        router from failing over.  Without a ``flight_dir`` there is no
        journal, and the post-mortem records only the exit status.
        """
        try:
            if self.config.flight_dir:
                pm = harvest_postmortem(
                    journal_dir(self.config.flight_dir, shard.name),
                    shard=shard.name,
                    exit_code=shard.exit_code,
                    window_seconds=self.config.window_seconds,
                )
            else:
                pm = {
                    "shard": shard.name,
                    "exit_code": shard.exit_code,
                    "exit_detail": shard.exit_detail,
                    "records": 0,
                    "warnings": ["no flight_dir configured; no journal"],
                }
            pm["orphaned_global_ids"] = list(orphaned_ids)
            with self._lock:
                self._postmortems[shard.name] = pm
        except Exception:
            pass

    # -- post-mortems ----------------------------------------------------
    def postmortem(self, shard_name: str) -> dict[str, Any] | None:
        """The post-mortem harvested when ``shard_name`` died, if any."""
        with self._lock:
            return self._postmortems.get(shard_name)

    def postmortems(self) -> dict[str, dict[str, Any]]:
        """Every harvested post-mortem, keyed by shard name."""
        with self._lock:
            return dict(self._postmortems)

    # -- control RPCs ----------------------------------------------------
    def _rpc(
        self, shard: _Shard, message: dict[str, Any], *, expect: str
    ) -> dict[str, Any]:
        if not shard.alive:
            raise self._died(shard)
        gid = next(self._next_id)
        waiter = _Waiter(shard)
        with self._lock:
            self._waiters[gid] = waiter
        try:
            self._send(shard, {**message, "id": gid})
            if not waiter.event.wait(_RPC_TIMEOUT):
                raise TimeoutError(
                    f"shard {shard.name} did not answer "
                    f"{message['kind']!r} within {_RPC_TIMEOUT} s"
                )
            reply = waiter.message
            assert reply is not None
            if reply["kind"] == "error":
                raise ShardDiedError(
                    reply.get("error", f"shard {shard.name} errored")
                ) if reply.get("error_type") == "ShardDiedError" else (
                    ServiceError(reply.get("error", "shard errored"))
                )
            if reply["kind"] != expect:
                raise ServiceError(
                    f"shard {shard.name} answered {reply['kind']!r}, "
                    f"expected {expect!r}"
                )
            return reply
        finally:
            with self._lock:
                self._waiters.pop(gid, None)

    def _each_shard(
        self, message: dict[str, Any], *, expect: str
    ) -> list[tuple[_Shard, dict[str, Any]]]:
        """Fan one control RPC out to every live shard (skip the dead)."""
        out: list[tuple[_Shard, dict[str, Any]]] = []
        for name in sorted(self._shards):
            shard = self._shards[name]
            if not shard.alive:
                continue
            try:
                out.append((shard, self._rpc(shard, dict(message),
                                             expect=expect)))
            except (ShardDiedError, TimeoutError):
                continue
        return out

    # -- aggregated telemetry --------------------------------------------
    def live_snapshot(self) -> dict[str, Any]:
        """Fleet-wide operational snapshot, same shape as the
        single-process service's, with one ``shards`` entry per worker
        process and a ``router`` entry for the hits the router served.

        Counters sum; latency percentiles are recomputed over the union
        of every process's raw window samples; SLO budgets merge good/bad
        counts — never averages of per-shard percentiles or compliance.
        """
        router = self._router.live_snapshot()
        replies = self._each_shard({"kind": "snapshot"},
                                   expect="snapshot_result")
        per_shard = [r["snapshot"] for _, r in replies]
        snapshots = [router, *per_shard]
        samples = [self._router._latency_window.samples()] + [
            r.get("latency_samples", []) for _, r in replies
        ]
        counters: dict[str, float] = {}
        for snap in snapshots:
            for name, value in snap.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
        if self._rejected:  # admission is the router's, so are refusals
            counters["service.rejected"] = (
                counters.get("service.rejected", 0) + self._rejected
            )
        plan_cache: dict[str, float] = {}
        for snap in snapshots:
            for name, value in snap.get("plan_cache", {}).items():
                if isinstance(value, (int, float)):
                    plan_cache[name] = plan_cache.get(name, 0) + value
        events = {"capacity": 0, "emitted": 0, "dropped": 0}
        for snap in snapshots:
            for key in events:
                events[key] += snap.get("events", {}).get(key, 0)
        shards = [s for snap in per_shard for s in snap.get("shards", [])]
        # Dead shards still get a row: how they ended is exactly what an
        # operator reading this snapshot needs to see.
        with self._lock:
            postmortems = dict(self._postmortems)
        for name in sorted(self._shards):
            s = self._shards[name]
            if s.alive:
                continue
            row: dict[str, Any] = {
                "shard": name,
                "alive": False,
                "exit_code": s.exit_code,
                "exit_detail": s.exit_detail or describe_exit(s.exit_code),
            }
            pm = postmortems.get(name)
            if pm is not None:
                row["in_flight_at_death"] = len(pm.get("in_flight", []))
                row["postmortem"] = pm.get("journal_dir")
            shards.append(row)
        with self._lock:
            closed = self._closed
            in_flight_router = len(self._pending)
        return {
            "closed": closed,
            "queue_depth": sum(s.get("queue_depth", 0) for s in snapshots),
            "in_flight": sum(s.get("in_flight", 0) for s in snapshots),
            "router_in_flight": in_flight_router,
            "workers": sum(s.get("workers", 0) for s in snapshots),
            "shard_count": len(self._shards),
            "live_shards": sum(
                1 for s in self._shards.values() if s.alive
            ),
            "counters": dict(sorted(counters.items())),
            "window": merge_window_samples(
                samples, self.config.window_seconds
            ),
            "slo": merge_slo_snapshots(
                [snap.get("slo", {}) for snap in snapshots]
            ),
            "alerts": merge_alert_snapshots(
                [snap.get("alerts", {}) for snap in snapshots]
            ),
            "plan_cache": plan_cache,
            "events": events,
            "shards": shards,
            "router": router["shards"][0],
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        """Aggregated counters plus the per-shard raw snapshots."""
        snap = self.live_snapshot()
        return {
            "counters": snap["counters"],
            "shards": snap["shards"],
        }

    def queue_depth(self) -> int:
        return int(self.live_snapshot()["queue_depth"])

    def request_timeline(self, request_id: int) -> list[TelemetryEvent]:
        """One request's trace, from the router or the shard that served it.

        Every process records events under the fleet-global id and the
        router keeps no request -> shard table, so the router's own
        service and every live shard are asked; only the one that served
        the request has any.
        """
        return self._events(request_id=request_id)

    def _events(self, **query: Any) -> list[TelemetryEvent]:
        replies = self._each_shard(
            {"kind": "events", **query}, expect="events_result"
        )
        return self._router.events.events(**query) + [
            e for _, reply in replies for e in reply.get("events", [])
        ]

    def prom_text(self) -> str:
        """Fleet-level Prometheus exposition built from the merged
        snapshot (shard-level series stay on each shard's own
        endpoint)."""
        snap = self.live_snapshot()
        out = PromText()
        out.registry({
            "counters": snap["counters"],
            "gauges": {
                "service.queue_depth": {"value": snap["queue_depth"]},
                "service.in_flight": {"value": snap["in_flight"]},
                "service.shards_live": {"value": snap["live_shards"]},
            },
            "histograms": {},
        })
        out.summary(
            "service.latency_seconds",
            snap["window"],
            help_text=(
                "Fleet end-to-end latency (union of shard windows)"
            ),
        )
        for name, value in snap["plan_cache"].items():
            out.gauge(f"plancache.{name}", value)
        out.event_log(snap.get("events", {}))
        alerts = snap.get("alerts", {})
        out.gauge(
            "alerts.active", len(alerts.get("active", [])),
            help_text="Alert rules currently firing anywhere in the fleet",
        )
        out.counter(
            "alerts.fired", alerts.get("fired_total", 0),
            help_text="Alert firing transitions across the fleet",
        )
        for obj in snap["slo"].get("objectives", []):
            base = f"slo.{obj['name']}"
            out.gauge(f"{base}.compliance", obj["compliance"])
            out.gauge(
                f"{base}.budget_remaining",
                obj["budget_remaining_fraction"],
            )
            out.gauge(f"{base}.breached", 1.0 if obj["breached"] else 0.0)
        return out.render()

    def _health(self) -> dict[str, Any]:
        with self._lock:
            closed = self._closed
            in_flight = len(self._pending)
        live = sum(1 for s in self._shards.values() if s.alive)
        return {
            "ok": not closed and live == len(self._shards),
            "closed": closed,
            "shards": len(self._shards),
            "live_shards": live,
            "in_flight": in_flight,
        }

    def serve_status(
        self, *, host: str = "127.0.0.1", port: int = 0
    ) -> StatusServer:
        """Fleet status endpoint; same routes as the single-process one."""
        if self._status_server is not None:
            raise RuntimeError("status server already running")

        def requests_ndjson(request_id: int | None, limit: int | None) -> str:
            import json

            events = self._events(request_id=request_id, limit=limit)
            lines = [
                json.dumps(e.to_dict(), sort_keys=True) for e in events
            ]
            return "\n".join(lines) + ("\n" if lines else "")

        self._status_server = StatusServer(
            metrics=self.prom_text,
            slo=self.live_snapshot,
            requests=requests_ndjson,
            health=self._health,
            host=host,
            port=port,
        )
        return self._status_server


__all__ = ["ShardDiedError", "ShardedExecutionService"]
