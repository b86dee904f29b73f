"""The unified submit surface: one protocol, three services.

Every way into the serving tier — the in-process
:class:`~repro.service.ExecutionService`, the multi-process
:class:`~repro.service.ShardedExecutionService`, and the asyncio
:class:`~repro.service.AsyncExecutionService` — speaks the same
contract, captured here as the :class:`Submitter` protocol:

* ``submit(request) -> Ticket`` — admit one :class:`ServiceRequest`;
* ``submit_all(requests) -> list[Ticket]`` — admit a batch;
* ``close(*, cancel_pending=False)`` — drain (or cancel) and shut down;
* context-manager lifecycle (``with``/``async with``);
* the **ticket contract**: the returned handle exposes ``result()``,
  ``done()``, ``cancel()`` and ``add_done_callback()`` and resolves to
  exactly one :class:`ServiceResponse`.

Sync callers and the asyncio front end therefore interoperate freely:
anything accepting a ``Submitter`` takes all three services, and the
differential harness drives them interchangeably.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

from .request import ServiceRequest, Ticket


@runtime_checkable
class Submitter(Protocol):
    """What every service front end — sync, sharded, async — provides."""

    def submit(self, request: ServiceRequest) -> Ticket:  # pragma: no cover
        ...

    def submit_all(
        self, requests: list[ServiceRequest]
    ) -> list[Ticket]:  # pragma: no cover
        ...

    def close(
        self, *, cancel_pending: bool = False
    ) -> None:  # pragma: no cover
        ...


def require_request(where: str, request: Any) -> ServiceRequest:
    """``submit``'s input validation: exactly one :class:`ServiceRequest`."""
    if isinstance(request, ServiceRequest):
        return request
    if request is None:
        raise TypeError(f"{where}() missing a ServiceRequest")
    raise TypeError(
        f"{where}() takes one ServiceRequest, not "
        f"{type(request).__name__}; for a batch use submit_all()"
    )


__all__ = ["Submitter", "require_request"]
