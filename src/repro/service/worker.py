"""Fleet worker process: pure calls behind a pipe.

:func:`shard_worker_main` is the entry point
:class:`~repro.service.ShardedExecutionService` spawns for each worker
process.  A worker holds no service — no queue, admission, single-flight,
retries or telemetry plane; those live once, in the router.  It holds
the fleet's cross-process plan cache and ``config.workers`` threads, and
speaks the :mod:`repro.service.ipc` frame protocol over its end of a
duplex pipe:

* a ``submit`` frame is one call: a request, its resolved compile
  options, its :class:`~repro.gpusim.faults.FaultInjector` (``execute``
  with a fault spec) and whether the router needs the plan back.  A
  thread compiles (a plan-cache hit when the plan is resident), runs the
  request's ``simulate`` / ``execute`` on the plan, and answers with one
  ``response`` frame under the same id: the plan, the value (None and a
  note if it does not pickle) or the error (a ``TransientFault`` as
  itself, anything else as a :class:`ServiceError` naming it), the
  advanced injector, the run's gpusim metrics, the events the call
  published (``compile.*``, ``plancache.*``, ``sim.*``) and the worker's
  plan-cache counters;
* ``close`` finishes the calls under way and returns — ending the
  process.

With ``config.flight_dir`` set, the worker journals every call under the
fleet-global id the router gave it (``worker.call`` … ``worker.done``),
so a post-mortem of a killed worker names the calls it was serving.

The entry point lives at module level (not a closure or lambda) so it
imports cleanly under the ``spawn`` multiprocessing start method as
well as the ``fork`` default on Linux.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from typing import Any

from repro.core.framework import Framework
from repro.core.plancache import SharedPlanCache
from repro.gpusim.faults import TransientFault
from repro.obs import MetricsRegistry
from repro.obs.flight import FlightRecorder, journal_dir
from repro.obs.live import EventLog, bind
from repro.service.config import ServiceConfig
from repro.service.ipc import INTERNS_PER_PLAN, SHARD_INTERNS, Channel
from repro.service.request import ServiceError
from repro.service.service import run_request


def _send_reply(channel: Channel, reply: dict[str, Any]) -> None:
    """Send one call's ``response`` frame.  A value that does not pickle
    travels as None with a ``note``, the call's outcome intact; a reply
    that still does not pickle fails the call, naming why."""
    try:
        channel.send(reply)
    except OSError:
        raise  # the pipe is gone, not the value
    except Exception as exc:
        note = f"result value not transferable: {type(exc).__name__}: {exc}"
        try:
            channel.send({**reply, "value": None, "note": note})
        except OSError:
            raise
        except Exception:
            channel.send({**reply, "compiled": None, "value": None,
                          "events": [], "error": ServiceError(note)})


def _answer(
    message: dict[str, Any],
    plan_cache: SharedPlanCache,
    config: ServiceConfig,
    journal: EventLog | None,
) -> dict[str, Any]:
    """Serve one call; returns its reply."""
    gid, request, injector = message["id"], message["request"], message["injector"]
    reply: dict[str, Any] = {
        "kind": "response", "id": gid, "compiled": None, "value": None,
        "error": None, "compile_seconds": 0.0, "seconds": 0.0,
    }
    metrics = MetricsRegistry() if request.mode == "execute" else None
    log = EventLog(capacity=config.telemetry_events)
    if journal is not None:
        journal.emit("worker.call", request_id=gid, mode=request.mode)
        log.add_sink(lambda e: journal.emit(
            e.kind, request_id=e.request_id, **e.fields
        ))
    start = time.perf_counter()
    try:
        with bind(log, gid):
            compiled = Framework(
                request.device, host=request.host,
                options=message["options"], plan_cache=plan_cache,
            ).compile(request.template)
            compiled_at = time.perf_counter()
            if message["plan"]:
                reply["compiled"] = compiled
                reply["compile_seconds"] = compiled_at - start
            if request.mode != "compile":
                reply["value"] = run_request(
                    request, compiled, injector, metrics
                )
                reply["seconds"] = time.perf_counter() - compiled_at
    except Exception as exc:
        # Only a transient fault crosses as itself (the router retries
        # it); any other error as the text an in-process failure reads.
        reply["error"] = exc if isinstance(exc, TransientFault) else ServiceError(
            f"internal: {type(exc).__name__}: {exc}"
        )
    if journal is not None:
        journal.emit(
            "worker.done", request_id=gid,
            status="failed" if reply["error"] else "ok",
            seconds=time.perf_counter() - start,
        )
    reply.update(
        injector=injector,
        metrics=metrics,
        events=[(e.kind, e.fields) for e in log.events()],
    )
    return reply


def shard_worker_main(conn: Any, config: ServiceConfig) -> None:
    """Run one worker: answer framed calls from ``conn`` until ``close``.

    ``config.shard_label`` names this worker (``proc/N``) in the
    router's snapshot and its journal directory.
    """
    channel = Channel(
        conn, INTERNS_PER_PLAN * config.plan_cache_entries, SHARD_INTERNS
    )
    plan_cache = SharedPlanCache(
        config.shared_cache_dir, max_entries=config.plan_cache_entries
    )
    journal: EventLog | None = None
    recorder: FlightRecorder | None = None
    if config.flight_dir and config.telemetry_events:
        # Only the journal reads this log: a one-event ring is enough.
        journal = EventLog(capacity=1)
        recorder = FlightRecorder(
            journal_dir(config.flight_dir, config.shard_label),
            segment_bytes=config.flight_segment_bytes,
            max_bytes=config.flight_max_bytes,
        )
        recorder.attach(journal)
        # First journal entry: ties the journal to a concrete pid, so a
        # post-mortem can say *which* incarnation of the worker it is
        # reading (the journal directory survives restarts).
        journal.emit("worker.start", shard=config.shard_label, pid=os.getpid())
    calls: queue.SimpleQueue[dict[str, Any] | None] = queue.SimpleQueue()
    # Counters read and sent under one lock reach the router in the
    # order they were read, so its latest copy is the newest.
    send_lock = threading.Lock()

    def serve() -> None:
        while (message := calls.get()) is not None:
            reply = _answer(message, plan_cache, config, journal)
            try:
                with send_lock:
                    reply["plan_cache"] = plan_cache.stats()
                    _send_reply(channel, reply)
            except OSError:
                return  # the router is gone: nothing to reply to

    threads = [
        threading.Thread(target=serve, name=f"repro-worker-{i}", daemon=True)
        for i in range(config.workers)
    ]
    for t in threads:
        t.start()
    try:
        while True:
            try:
                message = channel.recv()
            except Exception:  # EOF, a dead pipe or a corrupt frame
                break
            if message["kind"] == "close":
                break
            calls.put(message)
    finally:
        for _ in threads:
            calls.put(None)
        for t in threads:
            t.join()
        if journal is not None:
            # The clean-shutdown marker: a journal ending without one is
            # a crash, and post-mortems say so.
            journal.emit("worker.stop", shard=config.shard_label)
            recorder.close()
        try:
            conn.close()
        except Exception:
            pass


__all__ = ["shard_worker_main"]
