"""Concurrent execution service (repro.service)."""

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.framework import CompileOptions, Framework
from repro.core.plancache import PlanCache
from repro.core.serialize import plan_to_dict
from repro.gpusim import TESLA_C870, XEON_WORKSTATION, FaultSpec, GpuDevice
from repro.obs.flight import journal_dir, read_journal
from repro.runtime import reference_execute
from repro.service import (
    ExecutionService,
    QueueFullError,
    RequestStatus,
    RetryPolicy,
    ServiceClosedError,
    ServiceConfig,
    ServiceRequest,
    ServiceResponse,
    Ticket,
)
from repro.templates import find_edges_graph, find_edges_inputs

DEV = GpuDevice(name="svc-dev", memory_bytes=8 * 1024 * 1024)


def edge_request(size=64, kernel=8, **kwargs):
    kwargs.setdefault("label", f"edge{size}")
    return ServiceRequest(
        template=find_edges_graph(size, size, kernel, 2),
        device=DEV,
        host=XEON_WORKSTATION,
        **kwargs,
    )


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestRequestValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            edge_request(mode="transmogrify")

    def test_bad_planner(self):
        with pytest.raises(ValueError, match="planner"):
            edge_request(planner="oracle")

    def test_execute_requires_inputs(self):
        with pytest.raises(ValueError, match="inputs"):
            edge_request(mode="execute")

    def test_negative_deadline(self):
        with pytest.raises(ValueError, match="deadline"):
            edge_request(deadline=-1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(workers=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


@pytest.mark.timeout(60)
class TestSingleFlight:
    def test_concurrent_identical_requests_compile_once(self, monkeypatch):
        """The leader blocks mid-compile; followers must join its flight."""
        release = threading.Event()
        calls = []
        original = Framework.compile

        def blocking_compile(self, template, **kwargs):
            calls.append(template.name)
            assert release.wait(30), "test forgot to release the leader"
            return original(self, template, **kwargs)

        monkeypatch.setattr(Framework, "compile", blocking_compile)
        with ExecutionService(ServiceConfig(workers=4)) as svc:
            tickets = [svc.submit(edge_request()) for _ in range(4)]
            joined = wait_until(
                lambda: svc.metrics_snapshot()["counters"].get(
                    "service.singleflight_joins", 0
                ) == 3
            )
            assert joined, "3 of 4 identical requests must join the flight"
            release.set()
            responses = [t.result(timeout=30) for t in tickets]
        assert len(calls) == 1, "single-flight must compile exactly once"
        assert all(r.ok for r in responses)
        assert sum(r.deduped for r in responses) == 3

    def test_leader_failure_propagates_to_followers(self, monkeypatch):
        release = threading.Event()

        def exploding_compile(self, template, **kwargs):
            release.wait(30)
            raise RuntimeError("boom in the leader")

        monkeypatch.setattr(Framework, "compile", exploding_compile)
        with ExecutionService(ServiceConfig(workers=4)) as svc:
            tickets = [svc.submit(edge_request()) for _ in range(4)]
            wait_until(
                lambda: svc.metrics_snapshot()["counters"].get(
                    "service.singleflight_joins", 0
                ) == 3
            )
            release.set()
            responses = [t.result(timeout=30) for t in tickets]
        assert all(r.status is RequestStatus.FAILED for r in responses)
        assert all("boom" in (r.error or "") for r in responses)

    def test_sixteen_of_four_distinct(self):
        """The acceptance demo: 16 submissions of 4 distinct requests
        yield exactly 4 compiles and a dedupe counter of 12."""
        sizes = (48, 64, 80, 96)
        with ExecutionService(ServiceConfig(workers=8)) as svc:
            tickets = [
                svc.submit(edge_request(size=sizes[i % 4])) for i in range(16)
            ]
            responses = [t.result(timeout=60) for t in tickets]
            counters = svc.metrics_snapshot()["counters"]
            timelines = {t.id: svc.request_timeline(t.id) for t in tickets}
        assert all(r.ok for r in responses)
        assert counters["service.compiles"] == 4
        assert counters["service.dedupe_hits"] == 12
        assert (
            counters.get("service.singleflight_joins", 0)
            + counters.get("service.plan_cache_hits", 0)
        ) == 12
        # Every one of the 16 requests — leaders, single-flight
        # followers, and plan-cache hits alike — has a complete, ordered
        # admission -> completion telemetry timeline of its own.
        for ticket in tickets:
            timeline = timelines[ticket.id]
            assert timeline, f"request {ticket.id} has no timeline"
            assert all(e.request_id == ticket.id for e in timeline)
            kinds = [e.kind for e in timeline]
            assert kinds[0] == "service.admit"
            assert "service.start" in kinds
            assert kinds[-1] == "service.done"
            # the compile stage is visible either as this request's own
            # compile or as a join referencing the leader's
            assert (
                "service.compile_done" in kinds
                or "service.dedupe_join" in kinds
            )
            seqs = [e.seq for e in timeline]
            assert seqs == sorted(seqs)

    def test_pb_requests_dedupe_via_memo(self):
        with ExecutionService(ServiceConfig(workers=2)) as svc:
            first = svc.submit(edge_request(planner="pb")).result(timeout=60)
            second = svc.submit(edge_request(planner="pb")).result(timeout=60)
        assert first.ok and second.ok
        assert first.planner_used.startswith("pb")
        assert second.deduped


@pytest.mark.timeout(60)
class TestResidentHits:
    """A compile whose plan is already cached is served inside
    ``submit()`` — through the same ``_run`` path a worker takes."""

    def primed_cache(self):
        cache = PlanCache()
        with ExecutionService(ServiceConfig(workers=1), plan_cache=cache) as svc:
            assert svc.submit(edge_request()).result(timeout=60).ok
        return cache

    def test_repeat_compile_is_resolved_when_submit_returns(self):
        clock = lambda: 100.0  # noqa: E731 - a frozen fake clock
        with ExecutionService(ServiceConfig(workers=1), clock=clock) as svc:
            first = svc.submit(edge_request()).result(timeout=60)
            ticket = svc.submit(edge_request())
            assert ticket.done()
            response = ticket.result(timeout=0)
            counters = svc.metrics_snapshot()["counters"]
            timeline = [e.kind for e in svc.request_timeline(ticket.id)]
        assert first.ok and not first.deduped
        assert response.ok and response.deduped
        assert response.wait_seconds == 0 and response.deduped_from is None
        assert ticket.cancel() is False  # it has already run
        assert counters["service.compiles"] == 1
        assert counters["service.plan_cache_hits"] == 1
        assert counters["service.dedupe_hits"] == 1
        assert timeline == [
            "service.admit", "service.start", "compile.start",
            "plancache.hit", "compile.done", "service.compile_done",
            "service.done",
        ]

    @pytest.mark.parametrize(
        "kwargs, cfg, queued",
        [
            ({}, {}, False),
            ({"size": 80}, {}, True),  # a miss
            ({"mode": "simulate"}, {}, True),
            (
                {"mode": "execute",
                 "inputs": find_edges_inputs(64, 64, 8, 2)},
                {},
                True,
            ),
            ({}, {"batch_window": 0.001}, True),
        ],
        ids=["hit", "miss", "simulate", "execute", "batch_window"],
    )
    def test_only_a_resident_compile_skips_the_queue(self, kwargs, cfg, queued):
        cache = self.primed_cache()
        config = ServiceConfig(workers=1, **cfg)
        with ExecutionService(config, plan_cache=cache) as svc:
            response = svc.submit(edge_request(**kwargs)).result(timeout=60)
            gauges = svc.metrics_snapshot()["gauges"]
        assert response.ok
        # a hit never touches the queue, so its gauge may not even exist
        peak = gauges.get("service.queue_depth", {"peak": 0})["peak"]
        assert peak == (1 if queued else 0)

    def test_hits_from_many_threads_lose_no_count_or_event(self):
        threads_n, per_thread = 4, 200
        with ExecutionService(ServiceConfig(workers=1)) as svc:
            assert svc.submit(edge_request()).result(timeout=60).ok
            emitted = svc.events.total_emitted
            barrier = threading.Barrier(threads_n, timeout=30)

            def client():
                barrier.wait()
                for _ in range(per_thread):
                    assert svc.submit(edge_request()).result(timeout=0).ok

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=client) for _ in range(threads_n)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            hits = threads_n * per_thread
            snap = svc.live_snapshot()
        assert snap["counters"]["service.plan_cache_hits"] == hits
        assert snap["counters"]["service.dedupe_hits"] == hits
        assert snap["counters"]["service.submitted"] == hits + 1
        assert snap["counters"]["service.completed"] == hits + 1
        assert snap["events"]["emitted"] - emitted == 7 * hits
        assert snap["window"]["count"] == snap["slo"]["total"] == hits + 1
        assert snap["in_flight"] == 0

    def test_unread_counters_stay_bounded_and_fold_exactly(self):
        with ExecutionService(ServiceConfig(workers=1)) as svc:
            assert svc.submit(edge_request()).result(timeout=60).ok
            for _ in range(1500):
                assert svc.submit(edge_request()).done()
            assert len(svc._unfolded) <= 1024  # folded a few at a time
            counters = svc.metrics_snapshot()["counters"]
            histograms = svc.metrics_snapshot()["histograms"]
            assert not svc._unfolded
        assert counters["service.submitted"] == counters["service.ok"] == 1501
        assert counters["service.plan_cache_hits"] == 1500
        assert histograms["service.wait_seconds"]["count"] == 1501

    def test_resident_pb_plan_skips_the_queue(self):
        with ExecutionService(ServiceConfig(workers=1)) as svc:
            svc.submit(edge_request(planner="pb")).result(timeout=60)
            ticket = svc.submit(edge_request(planner="pb"))
            assert ticket.done() and ticket.result(timeout=0).deduped

    def test_identical_request_behind_a_blocked_leader_joins_its_flight(
        self, monkeypatch
    ):
        release = threading.Event()
        original = Framework.compile

        def blocking_compile(self, template, **kwargs):
            assert release.wait(30), "test forgot to release the leader"
            return original(self, template, **kwargs)

        monkeypatch.setattr(Framework, "compile", blocking_compile)
        with ExecutionService(ServiceConfig(workers=2)) as svc:
            leader = svc.submit(edge_request())
            follower = svc.submit(edge_request())
            assert not follower.done()
            assert wait_until(
                lambda: svc.metrics_snapshot()["counters"].get(
                    "service.singleflight_joins", 0
                ) == 1
            )
            release.set()
            response = follower.result(timeout=30)
        assert leader.result(timeout=30).ok
        assert response.ok and response.deduped_from == leader.id

    def test_interrupt_during_a_hit_fails_it_and_propagates(self, monkeypatch):
        def interrupted(self, template, **kwargs):
            raise KeyboardInterrupt

        with ExecutionService(ServiceConfig(workers=1)) as svc:
            assert svc.submit(edge_request()).result(timeout=60).ok
            monkeypatch.setattr(Framework, "compile", interrupted)
            with pytest.raises(KeyboardInterrupt):
                svc.submit(edge_request())
            assert svc.live_snapshot()["in_flight"] == 0
            assert svc.metrics_snapshot()["counters"]["service.failed"] == 1

    def test_close_waits_for_hits_on_submitting_threads(
        self, flight_dir, monkeypatch
    ):
        config = ServiceConfig(workers=1, flight_dir=flight_dir)
        svc = ExecutionService(config)
        request = edge_request()
        assert svc.submit(request).result(timeout=60).ok
        original = Framework.compile
        inside = threading.Event()

        def slow_hit(self, template, **kwargs):
            inside.set()
            time.sleep(0.02)  # so close() lands mid-request
            return original(self, template, **kwargs)

        monkeypatch.setattr(Framework, "compile", slow_hit)
        admitted = []

        def hammer():
            while True:
                try:
                    admitted.append(svc.submit(request))
                except ServiceClosedError:
                    return

        thread = threading.Thread(target=hammer)
        thread.start()
        assert wait_until(lambda: len(admitted) >= 10)
        inside.clear()
        assert inside.wait(10)
        svc.close()
        thread.join(timeout=30)
        assert all(t.result(timeout=0).ok for t in admitted)
        assert svc.events.events()[-1].kind == "service.close"
        records = read_journal(journal_dir(flight_dir, config.shard_label))
        assert records.records[-1]["kind"] == "service.close"


@pytest.mark.timeout(60)
class TestDeadlines:
    def test_expired_heuristic_request_is_rejected_loudly(self):
        with ExecutionService(ServiceConfig(workers=1)) as svc:
            resp = svc.submit(
                edge_request(planner="heuristic", deadline=0.0)
            ).result(timeout=30)
        assert resp.status is RequestStatus.EXPIRED
        assert "deadline expired" in resp.error
        assert resp.value is None

    def test_expired_pb_request_degrades_to_heuristic(self):
        with ExecutionService(ServiceConfig(workers=1)) as svc:
            resp = svc.submit(
                edge_request(planner="pb", deadline=0.0)
            ).result(timeout=30)
            counters = svc.metrics_snapshot()["counters"]
        assert resp.ok
        assert resp.degraded
        assert resp.planner_used == "heuristic-degraded"
        assert counters["service.degraded"] == 1

    def test_degraded_pb_options_compile_with_dfs(self):
        with ExecutionService(ServiceConfig(workers=1)) as svc:
            resp = svc.submit(
                edge_request(
                    options=CompileOptions(scheduler="pb"), deadline=0.0
                )
            ).result(timeout=30)
        assert resp.ok and resp.planner_used == "heuristic-degraded"
        assert resp.value.options.scheduler == "dfs"

    def test_degradation_disabled_expires_instead(self):
        cfg = ServiceConfig(workers=1, degrade_on_deadline=False)
        with ExecutionService(cfg) as svc:
            resp = svc.submit(
                edge_request(planner="pb", deadline=0.0)
            ).result(timeout=30)
        assert resp.status is RequestStatus.EXPIRED

    def test_deadline_pressure_mid_retry_expires_heuristic(self):
        # Backoff (1s) cannot fit in the 50 ms deadline, and a heuristic
        # request has nothing to degrade to: explicit expiry.
        sleeps = []
        cfg = ServiceConfig(
            workers=1,
            retry=RetryPolicy(max_attempts=5, backoff_base=1.0),
            fault_spec=FaultSpec(transfer_failure_rate=1.0, seed=1, max_faults=4),
        )
        with ExecutionService(cfg, sleep=sleeps.append) as svc:
            resp = svc.submit(
                edge_request(
                    mode="execute",
                    inputs=find_edges_inputs(64, 64, 8, 2),
                    deadline=0.05,
                )
            ).result(timeout=30)
        assert resp.status is RequestStatus.EXPIRED
        assert "backoff" in resp.error
        assert sleeps == []  # expired instead of sleeping past the deadline

    def test_deadline_pressure_mid_retry_degrades_pb(self):
        cfg = ServiceConfig(
            workers=1,
            retry=RetryPolicy(max_attempts=5, backoff_base=1.0),
            fault_spec=FaultSpec(transfer_failure_rate=1.0, seed=1, max_faults=1),
        )
        with ExecutionService(cfg, sleep=lambda s: None) as svc:
            resp = svc.submit(
                edge_request(
                    mode="execute",
                    planner="pb",
                    inputs=find_edges_inputs(64, 64, 8, 2),
                    deadline=0.05,
                )
            ).result(timeout=60)
        assert resp.ok
        assert resp.degraded
        assert resp.planner_used.endswith("-degraded")

    def test_default_deadline_from_config(self):
        cfg = ServiceConfig(workers=1, default_deadline=1e-9,
                            degrade_on_deadline=False)
        with ExecutionService(cfg) as svc:
            resp = svc.submit(edge_request()).result(timeout=30)
        assert resp.status is RequestStatus.EXPIRED


@pytest.mark.timeout(60)
class TestAdmissionAndCancellation:
    def blocked_service(self, monkeypatch, **cfg):
        release = threading.Event()
        original = Framework.compile

        def blocking_compile(self, template, **kwargs):
            release.wait(30)
            return original(self, template, **kwargs)

        monkeypatch.setattr(Framework, "compile", blocking_compile)
        return ExecutionService(ServiceConfig(**cfg)), release

    def test_queue_full_is_explicit(self, monkeypatch):
        svc, release = self.blocked_service(
            monkeypatch, workers=1, max_queue_depth=1
        )
        with svc:
            running = svc.submit(edge_request(size=48))
            assert wait_until(lambda: svc.queue_depth() == 0)
            queued = svc.submit(edge_request(size=64))
            with pytest.raises(QueueFullError, match="queue depth"):
                svc.submit(edge_request(size=80))
            counters = svc.metrics_snapshot()["counters"]
            assert counters["service.rejected"] == 1
            release.set()
            assert running.result(timeout=30).ok
            assert queued.result(timeout=30).ok

    def test_cancel_queued_request(self, monkeypatch):
        svc, release = self.blocked_service(
            monkeypatch, workers=1, max_queue_depth=8
        )
        with svc:
            running = svc.submit(edge_request(size=48))
            assert wait_until(lambda: svc.queue_depth() == 0)
            queued = svc.submit(edge_request(size=64))
            assert queued.cancel() is True
            resp = queued.result(timeout=5)
            assert resp.status is RequestStatus.CANCELLED
            # cancelling a running (or finished) request is a no-op
            assert running.cancel() is False
            release.set()
            assert running.result(timeout=30).ok

    def test_submit_after_close_raises(self):
        svc = ExecutionService(ServiceConfig(workers=1))
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit(edge_request())

    def test_close_drains_queue(self):
        with ExecutionService(ServiceConfig(workers=2)) as svc:
            tickets = svc.submit_all([edge_request(size=s) for s in (48, 64, 80)])
        # context exit closes + joins: everything must have finished
        assert all(t.result(timeout=1).ok for t in tickets)

    def test_close_cancel_pending(self, monkeypatch):
        svc, release = self.blocked_service(
            monkeypatch, workers=1, max_queue_depth=8
        )
        running = svc.submit(edge_request(size=48))
        assert wait_until(lambda: svc.queue_depth() == 0)
        queued = svc.submit(edge_request(size=64))
        release.set()
        svc.close(cancel_pending=True)
        assert running.result(timeout=5).ok
        assert queued.result(timeout=5).status is RequestStatus.CANCELLED

    def test_result_timeout(self, monkeypatch):
        svc, release = self.blocked_service(monkeypatch, workers=1)
        with svc:
            ticket = svc.submit(edge_request())
            with pytest.raises(TimeoutError, match="not done"):
                ticket.result(timeout=0.01)
            release.set()
            assert ticket.result(timeout=30).ok


@pytest.mark.timeout(120)
class TestTicketResolution:
    def test_racing_waiters_and_callbacks_see_one_resolution(self):
        """_resolve, result(timeout=...), done() and add_done_callback race
        on one ticket, 1,000 rounds: every callback fires exactly once and
        every reader gets the one response."""
        rounds = 1000
        request = edge_request()
        tickets = [
            Ticket(id=i, request=request, submitted_at=0.0, deadline_at=None)
            for i in range(rounds)
        ]
        responses = [
            ServiceResponse(request_id=i, label="race", status=RequestStatus.OK)
            for i in range(rounds)
        ]
        fired = [[] for _ in range(rounds)]
        seen = [[] for _ in range(rounds)]
        for i, ticket in enumerate(tickets):  # registered before the race
            ticket.add_done_callback(
                lambda t, i=i: fired[i].append(("early", t, t.done()))
            )
        barrier = threading.Barrier(4, timeout=30)

        def resolver():
            for i in range(rounds):
                barrier.wait()
                tickets[i]._resolve(responses[i])

        def waiter():
            for i in range(rounds):
                barrier.wait()
                seen[i].append(tickets[i].result(timeout=30))

        def poller():
            for i in range(rounds):
                barrier.wait()
                while not tickets[i].done():
                    pass
                seen[i].append(tickets[i].result(timeout=0))

        def subscriber():
            for i in range(rounds):
                barrier.wait()
                tickets[i].add_done_callback(
                    lambda t, i=i: fired[i].append(("racing", t, t.done()))
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=f)
                       for f in (resolver, waiter, poller, subscriber)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, ticket in enumerate(tickets):
            assert sorted(tag for tag, _, _ in fired[i]) == ["early", "racing"]
            assert all(t is ticket and done for _, t, done in fired[i])
            assert len(seen[i]) == 2
            assert all(r is responses[i] for r in seen[i])
            assert ticket.done() and ticket.status is RequestStatus.OK


@pytest.mark.timeout(60)
class TestRetries:
    def test_seeded_faults_retry_to_completion(self):
        """The acceptance demo: 20% seeded transfer faults, every request
        completes via retries, counters visible."""
        cfg = ServiceConfig(
            workers=4,
            retry=RetryPolicy(max_attempts=8, backoff_base=1e-4),
            fault_spec=FaultSpec(transfer_failure_rate=0.2, seed=7),
        )
        inputs = find_edges_inputs(64, 64, 8, 2)
        with ExecutionService(cfg) as svc:
            tickets = [
                svc.submit(edge_request(mode="execute", inputs=inputs))
                for _ in range(8)
            ]
            responses = [t.result(timeout=120) for t in tickets]
            counters = svc.metrics_snapshot()["counters"]
        assert all(r.ok for r in responses)
        assert counters["service.retries"] > 0
        assert counters["service.faults"] == counters["service.retries"]
        assert counters["gpu.faults.transfer"] == counters["service.faults"]

    def test_retry_is_deterministic_per_seed(self):
        def attempts_for(seed):
            cfg = ServiceConfig(
                workers=1,
                retry=RetryPolicy(max_attempts=8, backoff_base=1e-4),
                fault_spec=FaultSpec(transfer_failure_rate=0.3, seed=seed),
            )
            with ExecutionService(cfg) as svc:
                resp = svc.submit(
                    edge_request(
                        mode="execute",
                        inputs=find_edges_inputs(64, 64, 8, 2),
                    )
                ).result(timeout=60)
            assert resp.ok
            return resp.attempts

        assert attempts_for(3) == attempts_for(3)

    def test_backoff_schedule_and_injectable_sleep(self):
        sleeps = []
        policy = RetryPolicy(
            max_attempts=5, backoff_base=0.01, backoff_multiplier=2.0,
            backoff_max=1.0,
        )
        cfg = ServiceConfig(
            workers=1,
            retry=policy,
            fault_spec=FaultSpec(
                transfer_failure_rate=1.0, seed=0, max_faults=2
            ),
        )
        with ExecutionService(cfg, sleep=sleeps.append) as svc:
            resp = svc.submit(
                edge_request(
                    mode="execute", inputs=find_edges_inputs(64, 64, 8, 2)
                )
            ).result(timeout=60)
        assert resp.ok
        assert resp.attempts == 3 and resp.retries == 2
        assert sleeps == [policy.backoff(1), policy.backoff(2)]

    def test_exhausted_retries_fail_with_last_fault(self):
        cfg = ServiceConfig(
            workers=1,
            retry=RetryPolicy(max_attempts=2, backoff_base=1e-4),
            fault_spec=FaultSpec(transfer_failure_rate=1.0, seed=0),
        )
        with ExecutionService(cfg) as svc:
            resp = svc.submit(
                edge_request(
                    mode="execute", inputs=find_edges_inputs(64, 64, 8, 2)
                )
            ).result(timeout=60)
        assert resp.status is RequestStatus.FAILED
        assert "gave up after 2 attempts" in resp.error
        assert "injected" in resp.error

    def test_results_correct_despite_faults(self):
        g = find_edges_graph(64, 64, 8, 2)
        inputs = find_edges_inputs(64, 64, 8, 2)
        cfg = ServiceConfig(
            workers=2,
            retry=RetryPolicy(max_attempts=8, backoff_base=1e-4),
            fault_spec=FaultSpec(transfer_failure_rate=0.25, seed=5),
        )
        with ExecutionService(cfg) as svc:
            resp = svc.submit(
                ServiceRequest(
                    template=g, device=DEV, host=XEON_WORKSTATION,
                    mode="execute", inputs=inputs,
                )
            ).result(timeout=120)
        assert resp.ok and resp.retries > 0
        reference = reference_execute(g, inputs)
        for name, arr in reference.items():
            np.testing.assert_allclose(
                resp.value.outputs[name], arr, atol=1e-4
            )


@pytest.mark.timeout(60)
class TestModesAndPlanners:
    def test_simulate_mode(self):
        with ExecutionService(ServiceConfig(workers=1)) as svc:
            resp = svc.submit(edge_request(mode="simulate")).result(timeout=30)
        assert resp.ok
        assert resp.value.total_time > 0

    def test_auto_planner_picks_pb_for_small_templates(self):
        cfg = ServiceConfig(workers=1, pb_max_ops=64)
        with ExecutionService(cfg) as svc:
            resp = svc.submit(edge_request(planner="auto")).result(timeout=60)
        assert resp.ok
        assert resp.planner_used.startswith("pb")

    def test_auto_planner_falls_back_for_large_templates(self):
        cfg = ServiceConfig(workers=1, pb_max_ops=1)
        with ExecutionService(cfg) as svc:
            resp = svc.submit(edge_request(planner="auto")).result(timeout=30)
        assert resp.ok
        assert resp.planner_used == "heuristic"

    def test_compile_on_full_size_device(self):
        with ExecutionService(ServiceConfig(workers=1)) as svc:
            resp = svc.submit(
                ServiceRequest(
                    template=find_edges_graph(64, 64, 8, 2),
                    device=TESLA_C870,
                    host=XEON_WORKSTATION,
                )
            ).result(timeout=30)
        assert resp.ok
        assert resp.value.plan.launches()


@pytest.mark.timeout(60)
class TestPBCompilePass:
    """A PB request is a ``scheduler="pb"`` compile: one plan store."""

    def test_served_pb_compile_is_a_full_compile(self):
        with ExecutionService(ServiceConfig(workers=1)) as svc:
            resp = svc.submit(edge_request(planner="pb")).result(timeout=60)
        compiled = resp.value
        assert resp.ok and compiled.source == resp.planner_used == "pb"
        assert compiled.options.scheduler == "pb"
        assert compiled.peak_device_floats > 0
        assert compiled.metrics["counters"]["plan_cache.miss"] == 1
        assert "pb_or_heuristic" in [s.name for s in compiled.spans]

    def test_pb_plan_made_on_one_shard_is_a_hit_on_another(self, tmp_path):
        config = ServiceConfig(workers=1, shared_cache_dir=str(tmp_path))
        with ExecutionService(config) as first_svc:
            first = first_svc.submit(
                edge_request(planner="pb")
            ).result(timeout=60)
        with ExecutionService(config) as second_svc:
            second = second_svc.submit(
                edge_request(planner="pb")
            ).result(timeout=60)
            counters = second_svc.metrics_snapshot()["counters"]
        assert first.ok and second.ok and second.deduped
        assert counters["service.plan_cache_hits"] == 1
        assert counters.get("service.compiles", 0) == 0
        assert second.planner_used == first.planner_used == "pb"
        digest = [
            json.dumps(plan_to_dict(r.value.plan), sort_keys=True)
            for r in (first, second)
        ]
        assert digest[0] == digest[1]
        assert second.value.op_order == first.value.op_order


@pytest.mark.timeout(60)
class TestObservability:
    def test_metrics_snapshot_shape(self):
        with ExecutionService(ServiceConfig(workers=2)) as svc:
            tickets = [svc.submit(edge_request()) for _ in range(3)]
            [t.result(timeout=30) for t in tickets]
            snap = svc.metrics_snapshot()
        counters, gauges = snap["counters"], snap["gauges"]
        histograms = snap["histograms"]
        assert counters["service.submitted"] == 3
        assert counters["service.completed"] == 3
        assert counters["service.ok"] == 3
        assert gauges["service.queue_depth"]["value"] == 0
        assert gauges["service.in_flight"]["value"] == 0
        assert histograms["service.wait_seconds"]["count"] == 3
        assert histograms["service.service_seconds"]["count"] == 3

    def test_traces_collected_per_request(self):
        with ExecutionService(ServiceConfig(workers=2)) as svc:
            svc.submit(edge_request()).result(timeout=30)
            svc.submit(edge_request()).result(timeout=30)
            spans = svc.tracer.find("service.request")
        assert len(spans) == 2
        assert {sp.attrs["status"] for sp in spans} == {"ok"}

    def test_tracer_keeps_only_the_most_recent_spans(self):
        ring = 16
        with ExecutionService(ServiceConfig(workers=1, telemetry_events=ring)) as svc:
            for _ in range(12):
                svc.submit(edge_request()).result(timeout=30)
                assert len(svc.tracer.spans) <= ring
            newest = svc.tracer.find("service.request")
            assert newest and newest[-1] is svc.tracer.spans[-1]
            svc.submit(edge_request()).result(timeout=30)
            spans = svc.tracer.find("service.request")
        assert len(svc.tracer.spans) == ring
        assert spans[-1].start > newest[-1].start
        assert spans[-1] is svc.tracer.spans[-1]

    def test_response_to_dict_is_json_ready(self):
        import json

        with ExecutionService(ServiceConfig(workers=1)) as svc:
            resp = svc.submit(edge_request()).result(timeout=30)
        payload = json.loads(json.dumps(resp.to_dict()))
        assert payload["status"] == "ok"
        assert payload["attempts"] == 1
