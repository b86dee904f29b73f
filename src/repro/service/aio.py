"""Async-first service API: ``await service.submit(...)``.

:class:`AsyncExecutionService` is the asyncio face of the serving tier.
It wraps the threaded execution core — the in-process
:class:`~repro.service.ExecutionService` or, with ``shards > 0``, the
same service over a pool of worker processes
(:class:`~repro.service.ShardedExecutionService`) — behind the same
:class:`~repro.service.Submitter` contract, so async and sync callers
are thin shells over one core::

    async with AsyncExecutionService(ServiceConfig(workers=4)) as svc:
        ticket = await svc.submit(ServiceRequest(
            template=graph, device=dev, mode="execute", inputs=inputs,
        ))
        response = await ticket          # awaitable ticket
    assert response.ok

Tickets bridge the thread world into the event loop without polling:
resolution fires the core ticket's done-callback on the worker thread,
which hands the response to the awaiting loop via
``call_soon_threadsafe``.  The loop is never blocked — admission and
shutdown run in the default executor: on both tiers, admission serves a
compile whose plan is cached *inside* ``submit()`` (the whole request
runs there), and hashes a never-seen template.

Every :class:`AsyncTicket` also works *without* a running event loop:
``result(timeout=...)`` falls back to the core ticket's blocking wait,
and the service is a plain context manager too — sync callers can hold
the same object (see ``tests/test_async_service.py``).
"""

from __future__ import annotations

import asyncio
import functools
from typing import Any

from .config import ServiceConfig
from .request import RequestStatus, ServiceRequest, ServiceResponse, Ticket
from .service import ExecutionService
from .submitter import require_request


class AsyncTicket:
    """Awaitable handle for one submitted request.

    Wraps a core :class:`~repro.service.Ticket`; ``await ticket``
    resolves to its :class:`~repro.service.ServiceResponse`.  The
    blocking surface (``result``, ``done``, ``cancel``,
    ``add_done_callback``) is delegated unchanged, so the ticket
    contract of the :class:`~repro.service.Submitter` protocol holds
    with or without an event loop.
    """

    __slots__ = ("ticket", "_future", "_loop")

    def __init__(self, ticket: Ticket) -> None:
        self.ticket = ticket
        self._future: asyncio.Future[ServiceResponse] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- identity / status ----------------------------------------------
    @property
    def id(self) -> int:
        return self.ticket.id

    @property
    def request(self) -> ServiceRequest:
        return self.ticket.request

    @property
    def status(self) -> RequestStatus:
        return self.ticket.status

    def done(self) -> bool:
        return self.ticket.done()

    def cancel(self) -> bool:
        """Cancel if still queued (see :meth:`Ticket.cancel`).  A
        cancelled request resolves its awaiters with a ``CANCELLED``
        response rather than raising ``asyncio.CancelledError`` — no
        request outcome is ever silent."""
        return self.ticket.cancel()

    def add_done_callback(self, fn: Any) -> None:
        self.ticket.add_done_callback(fn)

    # -- async side ------------------------------------------------------
    def _bound_future(self) -> asyncio.Future[ServiceResponse]:
        loop = asyncio.get_running_loop()
        if self._future is None:
            self._loop = loop
            fut: asyncio.Future[ServiceResponse] = loop.create_future()
            self._future = fut

            def _resolved(core_ticket: Ticket) -> None:
                response = core_ticket.result(timeout=0)

                def _set() -> None:
                    if not fut.done():
                        fut.set_result(response)

                try:
                    loop.call_soon_threadsafe(_set)
                except RuntimeError:
                    pass  # loop already closed; result() still works

            self.ticket.add_done_callback(_resolved)
        elif self._loop is not loop:
            raise RuntimeError(
                "AsyncTicket awaited from a second event loop; use "
                "result() for cross-loop access"
            )
        return self._future

    def __await__(self):
        return self._bound_future().__await__()

    async def wait(self) -> ServiceResponse:
        """Coroutine form of ``await ticket``."""
        return await self

    # -- sync fallback ---------------------------------------------------
    def result(self, timeout: float | None = None) -> ServiceResponse:
        """Blocking wait — the no-event-loop path for sync callers."""
        return self.ticket.result(timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AsyncTicket(id={self.ticket.id}, status={self.status.value})"


class AsyncExecutionService:
    """The asyncio front end over the threaded execution core.

    ``shards=0`` (default) wraps an in-process
    :class:`ExecutionService`; ``shards > 0`` wraps the multi-process
    :class:`~repro.service.ShardedExecutionService`.  An existing
    service can be adopted via ``core=`` (lifecycle stays with the
    caller unless ``own_core=True``).
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        shards: int = 0,
        core: Any = None,
        own_core: bool = True,
        **core_kwargs: Any,
    ) -> None:
        if core is not None:
            if shards or core_kwargs:
                raise TypeError(
                    "core= adopts an existing service; shards/extra "
                    "kwargs belong to its constructor"
                )
            self._core = core
            self._own_core = own_core
        elif shards > 0:
            from .shard import ShardedExecutionService

            self._core = ShardedExecutionService(
                config or ServiceConfig(), shards=shards, **core_kwargs
            )
            self._own_core = True
        else:
            self._core = ExecutionService(config or ServiceConfig(), **core_kwargs)
            self._own_core = True

    @property
    def core(self) -> Any:
        """The wrapped :class:`~repro.service.Submitter` core."""
        return self._core

    # -- submission ------------------------------------------------------
    async def submit(
        self, request: ServiceRequest | None = None, /
    ) -> AsyncTicket:
        """Admit one request; returns an awaitable :class:`AsyncTicket`.

        Admission is synchronous in the core (it hashes a new template
        and serves a cached compile outright), so it runs in the default
        executor — the event loop never blocks.  Raises exactly what the
        core raises
        (:class:`~repro.service.QueueFullError`,
        :class:`~repro.service.ServiceClosedError`).
        """
        req = require_request("AsyncExecutionService.submit", request)
        loop = asyncio.get_running_loop()
        ticket = await loop.run_in_executor(None, self._core.submit, req)
        return AsyncTicket(ticket)

    async def submit_all(
        self, requests: list[ServiceRequest]
    ) -> list[AsyncTicket]:
        """Admit a batch in submission order; admission is
        all-or-error per request, like the core's ``submit_all``."""
        return [await self.submit(r) for r in requests]

    # -- sync fallback (no running event loop) ---------------------------
    def submit_nowait(
        self, request: ServiceRequest | None = None, /
    ) -> AsyncTicket:
        """Synchronous admission for callers outside any event loop.

        The returned ticket is the same :class:`AsyncTicket` — await it
        later from a loop, or block on ``result()`` right here.
        """
        req = require_request("AsyncExecutionService.submit_nowait", request)
        return AsyncTicket(self._core.submit(req))

    # -- lifecycle -------------------------------------------------------
    async def aclose(self, *, cancel_pending: bool = False) -> None:
        """Drain (or cancel) and shut the core down, off the loop."""
        if not self._own_core:
            return
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None,
            functools.partial(self._core.close, cancel_pending=cancel_pending),
        )

    def close(self, *, cancel_pending: bool = False) -> None:
        """Blocking shutdown — the no-event-loop path."""
        if self._own_core:
            self._core.close(cancel_pending=cancel_pending)

    async def __aenter__(self) -> "AsyncExecutionService":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.aclose()

    def __enter__(self) -> "AsyncExecutionService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- telemetry passthrough -------------------------------------------
    def live_snapshot(self) -> dict[str, Any]:
        return self._core.live_snapshot()

    def prom_text(self) -> str:
        return self._core.prom_text()

    def queue_depth(self) -> int:
        return self._core.queue_depth()


__all__ = ["AsyncExecutionService", "AsyncTicket"]
