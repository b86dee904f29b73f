"""Shard worker process: one :class:`ExecutionService` behind a pipe.

:func:`shard_worker_main` is the entry point the shard router spawns in
each worker process.  It owns a full in-process execution service —
worker threads, plan cache (cross-process tier when the config names a
``shared_cache_dir``), telemetry plane — and speaks the
:mod:`repro.service.ipc` frame protocol over its end of a duplex pipe:

* ``submit`` frames — the requests the router did not answer itself:
  misses, ``simulate``, ``execute`` and anything batched — are admitted
  into the inner service *under the fleet-global id the router
  assigned*, so everything the shard says about a request —
  provenance, events, the flight journal — is in the caller's ids.
  Admission is not acknowledged: the router has already counted the
  request against ``max_queue_depth``.  Completion is pushed back via
  :meth:`Ticket.add_done_callback` as one ``response`` frame — from a
  worker thread, or straight from this loop when the plan landed in
  this shard's memory after the router looked; a submit the inner
  service refuses is answered with an ``error`` frame under the same
  id.
* ``snapshot`` / ``events`` / ``prom`` frames serve the router's
  aggregated telemetry: the snapshot reply additionally ships the raw
  latency-window samples, because fleet percentiles must be computed
  over the union of every shard's samples, never averaged.
* ``close`` drains (or cancels) the inner service, acks ``closed``,
  and returns — ending the process.

The entry point lives at module level (not a closure or lambda) so it
imports cleanly under the ``spawn`` multiprocessing start method as
well as the ``fork`` default on Linux.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from typing import Any

from repro.service.config import ServiceConfig
from repro.service.ipc import (
    INTERNS_PER_PLAN,
    SHARD_INTERNS,
    Channel,
    FrameError,
)
from repro.service.request import Ticket
from repro.service.service import ExecutionService


def _send_response(channel: Channel, ticket: Ticket) -> None:
    """Push one finished ticket's terminal ``response`` frame."""
    response = ticket._response
    assert response is not None
    frame = {"kind": "response", "id": ticket.id, "response": response}
    try:
        channel.send(frame)
    except OSError:
        raise  # the pipe is gone, not the value
    except Exception as exc:
        # The value (CompiledTemplate / ExecutionResult / SimulatedRun)
        # did not survive the pickler: the outcome still travels, with
        # an explicit note in place of the value.
        note = f"result value not transferable: {type(exc).__name__}: {exc}"
        frame["response"] = dataclasses.replace(
            response,
            value=None,
            error=f"{response.error}; {note}" if response.error else note,
        )
        channel.send(frame)


def shard_worker_main(conn: Any, config: ServiceConfig) -> None:
    """Run one shard: serve framed requests from ``conn`` until ``close``.

    ``config.shard_label`` is this shard's name in every snapshot the
    router aggregates.
    """
    service = ExecutionService(config)
    # First journal entry: ties the on-disk journal to a concrete pid,
    # so a post-mortem can say *which* incarnation of the shard it is
    # reading (the journal directory survives restarts).
    service.events.emit(
        "worker.start", shard=config.shard_label, pid=os.getpid()
    )
    # Completion callbacks fire on the inner service's worker threads —
    # or on this thread, at once, for a compile whose plan is cached
    # (admission served it); the channel serialises their frames.
    channel = Channel(
        conn, INTERNS_PER_PLAN * config.plan_cache_entries, SHARD_INTERNS
    )
    send = channel.send
    on_done = functools.partial(_send_response, channel)

    try:
        while True:
            try:
                message = channel.recv()
            except (EOFError, OSError):
                break  # router vanished: nothing to reply to
            except FrameError as exc:
                send({"kind": "error", "id": -1, "error": str(exc)})
                continue
            kind = message["kind"]
            gid = message.get("id", -1)
            try:
                if kind == "submit":
                    # A refusal raises into the ``error`` reply below.
                    service._admit(
                        message["request"], gid
                    ).add_done_callback(on_done)
                elif kind == "snapshot":
                    send({
                        "kind": "snapshot_result",
                        "id": gid,
                        "snapshot": service.live_snapshot(),
                        "latency_samples": service._latency_window.samples(),
                    })
                elif kind == "events":
                    send({
                        "kind": "events_result",
                        "id": gid,
                        "events": service.events.events(
                            request_id=message.get("request_id"),
                            kind=message.get("event_kind"),
                            limit=message.get("limit"),
                        ),
                    })
                elif kind == "prom":
                    send({
                        "kind": "prom_result",
                        "id": gid,
                        "text": service.prom_text(),
                    })
                elif kind == "close":
                    service.close(
                        cancel_pending=message.get("cancel_pending", False)
                    )
                    send({"kind": "closed", "id": gid})
                    break
                else:  # pragma: no cover - KNOWN_KINDS already filters
                    send({
                        "kind": "error",
                        "id": gid,
                        "error": f"unhandled kind {kind!r}",
                    })
            except Exception as exc:  # one bad message must not kill the shard
                try:
                    send({
                        "kind": "error",
                        "id": gid,
                        "error": f"{type(exc).__name__}: {exc}",
                    })
                except Exception:
                    break
    finally:
        service.close(cancel_pending=True)
        try:
            conn.close()
        except Exception:
            pass


__all__ = ["shard_worker_main"]
