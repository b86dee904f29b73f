"""AsyncExecutionService: the asyncio face of the serving tier.

Exercises the bridge between the threaded execution core and the event
loop: awaitable tickets resolved via ``call_soon_threadsafe``,
cancellation and deadline expiry surfacing as *responses* (never as
silent ``CancelledError``), single-flight dedupe under
``asyncio.gather`` fan-in, and the no-event-loop fallback path.
"""

import asyncio
import threading
import time

import pytest

from repro.core.framework import Framework
from repro.gpusim import XEON_WORKSTATION, GpuDevice
from repro.service import (
    AsyncExecutionService,
    AsyncTicket,
    RequestStatus,
    ServiceConfig,
    ServiceRequest,
    Submitter,
)
from repro.templates import find_edges_graph

DEV = GpuDevice(name="aio-dev", memory_bytes=8 * 1024 * 1024)


def edge_request(size=64, kernel=8, **kwargs):
    kwargs.setdefault("label", f"edge{size}")
    return ServiceRequest(
        template=find_edges_graph(size, size, kernel, 2),
        device=DEV,
        host=XEON_WORKSTATION,
        **kwargs,
    )


async def wait_until_async(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.005)
    return False


@pytest.mark.timeout(60)
class TestAwaitableTickets:
    def test_await_resolves_to_response(self):
        async def run():
            async with AsyncExecutionService(ServiceConfig(workers=2)) as svc:
                ticket = await svc.submit(edge_request())
                assert isinstance(ticket, AsyncTicket)
                response = await ticket
                return ticket, response

        ticket, response = asyncio.run(run())
        assert response.ok
        assert ticket.done()
        assert ticket.status is RequestStatus.OK

    def test_gather_sixteen_of_four_distinct_dedupes(self, monkeypatch):
        """The acceptance demo on the async path: 16 awaitable tickets
        over 4 distinct requests, collected with one ``asyncio.gather``,
        compile exactly 4 times — and every follower's ``deduped_from``
        provenance survives the bridge intact."""
        release = threading.Event()
        calls = []
        original = Framework.compile

        def blocking_compile(self, template, **kwargs):
            calls.append(template.name)
            assert release.wait(30), "test forgot to release the leaders"
            return original(self, template, **kwargs)

        monkeypatch.setattr(Framework, "compile", blocking_compile)
        sizes = (48, 64, 80, 96)

        async def run():
            # 16 workers: all four leaders block mid-compile while every
            # follower still reaches a worker and joins its flight.
            async with AsyncExecutionService(ServiceConfig(workers=16)) as svc:
                try:
                    tickets = await svc.submit_all(
                        [edge_request(size=sizes[i % 4]) for i in range(16)]
                    )
                    joined = await wait_until_async(
                        lambda: svc.core.metrics_snapshot()["counters"].get(
                            "service.singleflight_joins", 0
                        ) == 12
                    )
                    assert joined, (
                        "12 of 16 requests must join an in-flight compile"
                    )
                finally:
                    release.set()  # never leave close() waiting on workers
                responses = await asyncio.wait_for(
                    asyncio.gather(*tickets), timeout=60
                )
                counters = svc.core.metrics_snapshot()["counters"]
                return tickets, responses, counters

        tickets, responses, counters = asyncio.run(run())
        assert len(calls) == 4, "exactly one compile per distinct template"
        assert all(r.ok for r in responses)
        assert counters["service.singleflight_joins"] == 12
        deduped = [r for r in responses if r.deduped]
        assert len(deduped) == 12
        ids = {t.id for t in tickets}
        for r in deduped:
            assert r.deduped_from in ids
            assert r.deduped_from != r.request_id

    def test_await_a_cached_compile(self):
        """A plan-cache hit is resolved before admission returns; its
        ticket must still be awaitable, whichever way it was admitted."""

        async def run():
            async with AsyncExecutionService(ServiceConfig(workers=1)) as svc:
                await (await svc.submit(edge_request()))
                via_submit = await svc.submit(edge_request())
                via_nowait = svc.submit_nowait(edge_request())
                assert via_submit.done() and via_nowait.done()
                return await via_submit, await via_nowait

        responses = asyncio.run(run())
        assert all(r.ok and r.deduped for r in responses)

    def test_second_event_loop_rejected(self):
        async def submit():
            svc = AsyncExecutionService(ServiceConfig(workers=1))
            ticket = await svc.submit(edge_request())
            await ticket  # binds the ticket's future to this loop
            return svc, ticket

        svc, ticket = asyncio.run(submit())
        try:
            async def reawait():
                await ticket

            with pytest.raises(RuntimeError, match="second event loop"):
                asyncio.run(reawait())
            # the cross-loop escape hatch still works
            assert ticket.result(timeout=1).ok
        finally:
            svc.close()


@pytest.mark.timeout(60)
class TestCancellationAndDeadlines:
    def test_cancel_queued_ticket_mid_flight(self, monkeypatch):
        """With one worker pinned mid-compile, a queued ticket cancels
        cleanly and its awaiter receives a CANCELLED *response* — no
        ``asyncio.CancelledError``, no silent outcome."""
        release = threading.Event()
        original = Framework.compile

        def blocking_compile(self, template, **kwargs):
            assert release.wait(30)
            return original(self, template, **kwargs)

        monkeypatch.setattr(Framework, "compile", blocking_compile)

        async def run():
            async with AsyncExecutionService(ServiceConfig(workers=1)) as svc:
                try:
                    running = await svc.submit(edge_request(size=48))
                    queued = await svc.submit(edge_request(size=96))
                    assert queued.cancel() is True
                    cancelled = await asyncio.wait_for(queued, timeout=10)
                    # the running leader cannot be cancelled, only awaited
                    assert running.cancel() is False
                finally:
                    release.set()
                finished = await asyncio.wait_for(running, timeout=30)
                return cancelled, finished

        cancelled, finished = asyncio.run(run())
        assert cancelled.status is RequestStatus.CANCELLED
        assert not cancelled.ok
        assert finished.ok

    def test_deadline_expiry_while_awaiting(self):
        """A request whose deadline passes while its awaiter sleeps on
        the loop resolves to an EXPIRED response."""
        async def run():
            cfg = ServiceConfig(workers=1, degrade_on_deadline=False)
            async with AsyncExecutionService(cfg) as svc:
                ticket = await svc.submit(edge_request(deadline=1e-9))
                return await asyncio.wait_for(ticket, timeout=30)

        response = asyncio.run(run())
        assert response.status is RequestStatus.EXPIRED
        assert "deadline expired" in response.error
        assert response.value is None


@pytest.mark.timeout(60)
class TestNoEventLoopFallback:
    def test_submit_nowait_and_blocking_result(self):
        """The same service object serves sync callers: no running
        loop, plain context manager, blocking ``result()``."""
        with AsyncExecutionService(ServiceConfig(workers=2)) as svc:
            ticket = svc.submit_nowait(edge_request())
            response = ticket.result(timeout=30)
        assert response.ok
        assert ticket.done()

    def test_nowait_ticket_awaitable_later(self):
        """A ticket born outside any loop can still be awaited once a
        loop exists — resolution arrives even if the core finished
        before the future was bound."""
        with AsyncExecutionService(ServiceConfig(workers=2)) as svc:
            ticket = svc.submit_nowait(edge_request())
            ticket.result(timeout=30)  # already resolved

            async def late_await():
                return await asyncio.wait_for(ticket, timeout=5)

            response = asyncio.run(late_await())
        assert response.ok

    def test_async_service_is_a_submitter(self):
        svc = AsyncExecutionService(ServiceConfig(workers=1))
        try:
            assert isinstance(svc, Submitter)
        finally:
            svc.close()

    def test_adopted_core_lifecycle_stays_with_caller(self):
        from repro.service import ExecutionService

        core = ExecutionService(ServiceConfig(workers=1))
        try:
            with AsyncExecutionService(core=core, own_core=False) as svc:
                assert svc.core is core
                resp = svc.submit_nowait(edge_request()).result(timeout=30)
                assert resp.ok
            # the wrapper must not have closed the adopted core
            resp = core.submit(edge_request(size=48)).result(timeout=30)
            assert resp.ok
        finally:
            core.close()
