"""Requests, responses, and tickets.

A :class:`ServiceRequest` is a pure description of work — template,
target device, mode, planner, deadline.  Submitting one yields a
:class:`Ticket` (the caller's handle: wait, poll, cancel); completion
produces a :class:`ServiceResponse` that always states *what happened*
— status, attempts, retries, whether the result was deduplicated or
degraded — so no request outcome is ever silent.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.core.framework import CompileOptions
from repro.core.graph import OperatorGraph
from repro.gpusim import GpuDevice, HostSystem

MODES = ("compile", "execute", "simulate")
PLANNERS = ("heuristic", "pb", "auto")
#: frozen, so every request without options can share it
_DEFAULT_OPTIONS = CompileOptions()


class ServiceError(RuntimeError):
    """Base class for service-level rejections."""


class QueueFullError(ServiceError):
    """Admission control: the bounded queue is at capacity."""


class ServiceClosedError(ServiceError):
    """The service is no longer accepting submissions."""


class RequestStatus(str, enum.Enum):
    """Terminal and in-flight states of a submitted request."""

    PENDING = "pending"
    RUNNING = "running"
    OK = "ok"
    FAILED = "failed"
    EXPIRED = "expired"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self not in (RequestStatus.PENDING, RequestStatus.RUNNING)


@dataclass(frozen=True, kw_only=True, eq=False)
class ServiceRequest:
    """One unit of work for the execution service.

    ``mode`` selects the deliverable: a compiled plan (``compile``), a
    numeric run on the simulated device (``execute``, requires
    ``inputs``), or analytic timing (``simulate``).  ``planner`` picks
    the scheduling pipeline: the production heuristic (DFS + Belady),
    the bounded PB-optimal solver (``pb``), or ``auto`` (PB for small
    templates, heuristic otherwise).  ``deadline`` is a *budget in
    seconds from submission*; an expired request is degraded to the
    heuristic planner or explicitly rejected — never silently dropped.
    """

    template: OperatorGraph
    device: GpuDevice
    host: HostSystem | None = None
    options: CompileOptions | None = None
    mode: str = "compile"
    inputs: Mapping[str, Any] | None = None
    planner: str = "heuristic"
    deadline: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.planner not in PLANNERS:
            raise ValueError(
                f"planner must be one of {PLANNERS}, got {self.planner!r}"
            )
        if self.mode == "execute" and self.inputs is None:
            raise ValueError("mode='execute' requires inputs")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be >= 0 seconds")

    def compile_options(self, pb_max_ops: int) -> CompileOptions:
        """The options this request compiles with: its own, with
        ``scheduler="pb"`` when the planner is ``pb`` (or ``auto`` on a
        template of at most ``pb_max_ops`` operators).  The one rule
        behind every key of the service, and a fleet's worker choice."""
        opts = self.options or _DEFAULT_OPTIONS
        pb = self.planner == "pb" or (
            self.planner == "auto" and len(self.template.ops) <= pb_max_ops
        )
        return replace(opts, scheduler="pb") if pb else opts


@dataclass(kw_only=True)
class ServiceResponse:
    """The explicit outcome of one request."""

    request_id: int
    label: str
    status: RequestStatus
    #: CompiledTemplate / ExecutionResult / SimulatedRun, or None on
    #: failure/expiry/cancellation
    value: Any = None
    error: str | None = None
    #: planner that made the plan (``CompiledTemplate.source``:
    #: "heuristic", "pb", "pb-incumbent"), plus "-degraded" when the
    #: deadline forced a heuristic compile
    planner_used: str = ""
    attempts: int = 0
    retries: int = 0
    degraded: bool = False
    #: the compile stage was served by single-flight join or plan cache
    deduped: bool = False
    #: the request id whose in-flight compile this request joined
    #: (single-flight followers only; None for leaders and cache hits)
    deduped_from: int | None = None
    #: the *other* request ids coalesced into the same batched plan
    #: execution (empty when the request ran unbatched)
    batched_with: tuple[int, ...] = ()
    wait_seconds: float = 0.0
    service_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.OK

    @property
    def batched(self) -> bool:
        return bool(self.batched_with)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (the value itself is not serialized)."""
        return {
            "request_id": self.request_id,
            "label": self.label,
            "status": self.status.value,
            "error": self.error,
            "planner_used": self.planner_used,
            "attempts": self.attempts,
            "retries": self.retries,
            "degraded": self.degraded,
            "deduped": self.deduped,
            "deduped_from": self.deduped_from,
            "batched_with": list(self.batched_with),
            "wait_seconds": self.wait_seconds,
            "service_seconds": self.service_seconds,
        }


#: guards the one lazy ``Event`` of a ticket someone waits on
_WAITERS = threading.Lock()


@dataclass(eq=False)
class Ticket:
    """Caller-side handle for one submitted request.

    A ticket is resolved by one write of its response and makes a
    :class:`threading.Event` only for a caller that waits on it
    unresolved.  Resolver and waiter (or callback) each write their
    side, then read the other's, so one of them always sees the other.
    """

    id: int
    request: ServiceRequest
    submitted_at: float
    deadline_at: float | None
    _event: threading.Event | None = field(default=None, repr=False)
    _response: ServiceResponse | None = field(default=None, repr=False)
    _status: RequestStatus = RequestStatus.PENDING
    _cancel_hook: Any = field(default=None, repr=False)
    _done_callbacks: list = field(default_factory=list, repr=False)
    #: the request's compile options and their ``plan_key``, set at
    #: admission
    _options: CompileOptions | None = field(default=None, repr=False)
    _key: str = field(default="", repr=False)

    @property
    def status(self) -> RequestStatus:
        return self._status

    def done(self) -> bool:
        return self._response is not None

    def result(self, timeout: float | None = None) -> ServiceResponse:
        """Block until the request reaches a terminal state.

        Raises :class:`TimeoutError` if ``timeout`` elapses first — the
        request itself keeps running; call ``result()`` again to keep
        waiting.
        """
        if self._response is None:
            with _WAITERS:
                if self._event is None:
                    self._event = threading.Event()
            if self._response is None and not self._event.wait(timeout):
                raise TimeoutError(
                    f"request {self.id} not done after {timeout} s "
                    f"(status {self._status.value})"
                )
        assert self._response is not None
        return self._response

    def cancel(self) -> bool:
        """Cancel if still queued.  Returns True on success; a request
        already running (or finished) is not interrupted and False is
        returned.  A compile whose plan was already cached never queues:
        it has run by the time ``submit()`` returns, so it cannot be
        cancelled."""
        if self._cancel_hook is None:
            return False
        return bool(self._cancel_hook(self))

    def add_done_callback(self, fn) -> None:
        """Call ``fn(ticket)`` once the request reaches a terminal state.

        Fires immediately, on the calling thread, if the ticket is
        already resolved — always the case for a compile served from
        the plan cache, which ``submit()`` runs on the submitting thread
        before it returns.  Otherwise callbacks run on the resolving
        worker thread.  Either way they must be brief and non-blocking.
        """
        if self._response is None:
            self._done_callbacks.append(fn)
            if self._response is None:
                return  # the resolver reads the list after its write
            try:  # both saw each other: whoever takes fn out fires it
                self._done_callbacks.remove(fn)
            except ValueError:
                return
        fn(self)

    # -- service side ----------------------------------------------------
    def _resolve(self, response: ServiceResponse) -> None:
        self._status = response.status
        self._response = response
        if self._event is not None:
            self._event.set()
        callbacks = self._done_callbacks
        while callbacks:
            try:
                fn = callbacks.pop(0)
            except IndexError:  # add_done_callback took the last one back
                break
            try:
                fn(self)
            except Exception:
                pass  # a broken observer must not fail the request


__all__ = [
    "MODES",
    "PLANNERS",
    "QueueFullError",
    "RequestStatus",
    "ServiceClosedError",
    "ServiceError",
    "ServiceRequest",
    "ServiceResponse",
    "Ticket",
]
