"""Live telemetry plane (repro.obs.live + service integration).

Covers the event bus (ring bounds, ambient bind/publish, thread
isolation), sliding windows and SLO budgets, the Prometheus text
exporter, the HTTP status endpoint, and — the integration that matters —
end-to-end request-id propagation: every event one ``service.submit``
causes, across admission, plan-cache, compile, retry, and execute
stages, carries the same ``request_id``, including the single-flight
dedupe-join case where a follower's timeline references its leader.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.framework import Framework
from repro.gpusim import XEON_WORKSTATION, FaultSpec, GpuDevice
from repro.obs import MetricsRegistry
from repro.obs.live import (
    AlertEngine,
    AlertRule,
    EventLog,
    PROM_NAME_RE,
    PromText,
    SlidingWindow,
    SloObjective,
    SloTracker,
    StatusServer,
    bind,
    current_request_id,
    default_alert_rules,
    default_objectives,
    prom_name,
    publish,
    registry_to_prom,
    timeline_to_chrome,
)
from repro.service import ExecutionService, ServiceConfig, ServiceRequest
from repro.templates import find_edges_graph, find_edges_inputs

DEV = GpuDevice(name="live-dev", memory_bytes=8 * 1024 * 1024)


def edge_request(size=64, kernel=8, **kwargs):
    kwargs.setdefault("label", f"edge{size}")
    return ServiceRequest(
        template=find_edges_graph(size, size, kernel, 2),
        device=DEV,
        host=XEON_WORKSTATION,
        **kwargs,
    )


def _get(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


# ---------------------------------------------------------------------------
# EventLog
# ---------------------------------------------------------------------------
class TestEventLog:
    def test_emission_order_and_fields(self):
        log = EventLog(capacity=16, clock=lambda: 123.0)
        log.emit("service.admit", request_id=1, queue_depth=2)
        log.emit("compile.done", request_id=1, seconds=0.5)
        events = log.events()
        assert [e.kind for e in events] == ["service.admit", "compile.done"]
        assert events[0].seq == 0 and events[1].seq == 1
        assert events[0].ts == 123.0
        assert events[0].fields == {"queue_depth": 2}

    def test_ring_bound_drops_oldest_and_counts(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.emit("tick", request_id=i)
        events = log.events()
        assert len(events) == 4
        assert [e.request_id for e in events] == [6, 7, 8, 9]
        # seq numbers stay global, so consumers can detect the gap
        assert [e.seq for e in events] == [6, 7, 8, 9]
        assert log.total_emitted == 10
        assert log.dropped == 6

    def test_capacity_zero_disables(self):
        log = EventLog(capacity=0)
        assert log.emit("anything") is None
        assert not log.enabled
        assert log.events() == []
        assert log.total_emitted == 0

    def test_filters(self):
        log = EventLog()
        log.emit("service.admit", request_id=1)
        log.emit("service.done", request_id=1)
        log.emit("service.admit", request_id=2)
        log.emit("plancache.hit", request_id=2)
        assert len(log.events(request_id=2)) == 2
        assert len(log.events(kind="service.admit")) == 2
        # dotted-prefix filter
        assert len(log.events(kind="service.")) == 3
        assert [e.kind for e in log.events(limit=1)] == ["plancache.hit"]

    def test_ndjson_export(self):
        log = EventLog()
        log.emit("a", request_id=1, x=1)
        log.emit("b", request_id=2)
        lines = log.to_ndjson().strip().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["kind"] == "a"
        assert parsed[0]["fields"] == {"x": 1}
        assert json.loads(
            log.to_ndjson(request_id=2).strip()
        )["request_id"] == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            EventLog(capacity=-1)

    def test_concurrent_publishers_exact_counts_and_monotonic_seq(self):
        """The satellite guarantee: under contention well past capacity,
        total_emitted and dropped are *exact* (no lost updates) and seq
        numbers are unique, gapless, and monotonically assigned."""
        threads_n, per_thread, capacity = 8, 500, 64
        log = EventLog(capacity=capacity)
        barrier = threading.Barrier(threads_n)

        def publisher(tid):
            barrier.wait(timeout=10)
            for i in range(per_thread):
                log.emit("tick", request_id=tid, i=i)

        threads = [
            threading.Thread(target=publisher, args=(tid,))
            for tid in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = threads_n * per_thread
        assert log.total_emitted == total
        assert log.dropped == total - capacity
        events = log.events()
        assert len(events) == capacity
        seqs = [e.seq for e in events]
        # the surviving ring is exactly the last `capacity` seqs: unique,
        # gapless, ending at total-1
        assert seqs == list(range(total - capacity, total))

    def test_sink_sees_every_event_in_seq_order(self):
        """Sinks (the flight-recorder tee) run inside the ring lock, so
        a sink observes the same total order seq numbers promise —
        including events the ring has already dropped."""
        log = EventLog(capacity=4)
        seen = []
        log.add_sink(lambda e: seen.append(e.seq))
        barrier = threading.Barrier(4)

        def publisher():
            barrier.wait(timeout=10)
            for _ in range(50):
                log.emit("tick")

        threads = [threading.Thread(target=publisher) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == list(range(200))
        assert log.sink_errors == 0

    def test_broken_sink_is_counted_not_fatal(self):
        log = EventLog(capacity=8)

        def broken(event):
            raise RuntimeError("sink bug")

        log.add_sink(broken)
        log.emit("tick")
        log.emit("tick")
        assert log.total_emitted == 2  # emission unaffected
        assert log.sink_errors == 2
        log.remove_sink(broken)
        log.emit("tick")
        assert log.sink_errors == 2


class TestBindPublish:
    def test_publish_is_noop_when_unbound(self):
        assert publish("orphan", x=1) is None
        assert current_request_id() is None

    def test_bound_publish_carries_request_id(self):
        log = EventLog()
        with bind(log, 42):
            assert current_request_id() == 42
            event = publish("stage.done", seconds=0.1)
        assert event is not None and event.request_id == 42
        assert current_request_id() is None
        assert log.events(request_id=42)[0].fields == {"seconds": 0.1}

    def test_threads_do_not_cross_contaminate(self):
        """contextvars are per-thread: concurrent binds stay isolated."""
        log = EventLog()
        barrier = threading.Barrier(4)

        def worker(rid):
            with bind(log, rid):
                barrier.wait(timeout=10)
                for _ in range(20):
                    publish("work", rid_check=rid)

        threads = [
            threading.Thread(target=worker, args=(rid,)) for rid in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for event in log.events():
            assert event.request_id == event.fields["rid_check"]


# ---------------------------------------------------------------------------
# Sliding windows and SLOs
# ---------------------------------------------------------------------------
class TestSlidingWindow:
    def test_observations_age_out(self):
        now = [0.0]
        w = SlidingWindow(10.0, clock=lambda: now[0])
        w.observe(1.0)
        now[0] = 5.0
        w.observe(2.0)
        assert w.count() == 2
        now[0] = 11.0  # first sample is now older than the window
        assert w.count() == 1
        assert w.snapshot()["min"] == 2.0

    def test_percentiles_and_rate(self):
        w = SlidingWindow(10.0, clock=lambda: 0.0)
        for v in range(1, 101):
            w.observe(float(v))
        assert w.percentile(50) == 50.0
        assert w.percentile(99) == 99.0
        assert w.rate() == 10.0  # 100 samples / 10 s window
        snap = w.snapshot()
        assert snap["count"] == 100 and snap["p95"] == 95.0

    def test_empty_window(self):
        w = SlidingWindow(10.0)
        with pytest.raises(ValueError, match="empty"):
            w.percentile(50)
        snap = w.snapshot()
        assert snap["count"] == 0 and snap["p99"] == 0.0

    def test_max_samples_cap(self):
        w = SlidingWindow(1e9, clock=lambda: 0.0, max_samples=8)
        for v in range(100):
            w.observe(float(v))
        assert w.count() == 8
        assert w.snapshot()["min"] == 92.0  # oldest dropped first

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindow(0.0)
        with pytest.raises(ValueError):
            SlidingWindow(1.0, max_samples=0)


class _ListWindow:
    """The list-backed window these classes used to be: prune by time on
    every write and read, then cap by deleting from the front."""

    def __init__(self, window_seconds, clock, max_samples):
        self.window_seconds, self.clock, self.cap = window_seconds, clock, max_samples
        self.samples = []

    def add(self, *sample):
        self.samples.append((self.clock(), *sample))
        self.prune()

    def prune(self):
        horizon = self.clock() - self.window_seconds
        while self.samples and self.samples[0][0] <= horizon:
            del self.samples[:1]
        del self.samples[:max(0, len(self.samples) - self.cap)]
        return self.samples


class TestWindowsMatchTheListOracle:
    CAP = 64

    def test_a_full_window_keeps_the_newest_cap_in_order(self):
        w = SlidingWindow(1e9, clock=lambda: 0.0, max_samples=self.CAP)
        for v in range(3 * self.CAP):
            w.observe(float(v))
        assert w._values() == [float(v) for v in range(2 * self.CAP, 3 * self.CAP)]
        assert w.count() == self.CAP

    def test_snapshots_equal_the_oracle_on_a_fake_clock(self):
        import random

        rng, now = random.Random(7), [0.0]
        clock = lambda: now[0]  # noqa: E731
        window = SlidingWindow(10.0, clock=clock, max_samples=self.CAP)
        slo = SloTracker(window_seconds=10.0, clock=clock, max_samples=self.CAP)
        values, outcomes = (_ListWindow(10.0, clock, self.CAP) for _ in range(2))
        for _ in range(3 * self.CAP):
            now[0] += rng.choice([0.0, 0.01, 0.5, 3.0])
            value, ok = rng.random() * 2, rng.random() > 0.1
            window.observe(value)
            values.add(value)
            slo.record(ok=ok, latency=value)
            outcomes.add(ok, value)
            oracle_w = SlidingWindow(10.0, clock=lambda: 0.0, max_samples=self.CAP)
            for _, v in values.prune():
                oracle_w.observe(v)
            assert window.snapshot() == oracle_w.snapshot()
            oracle_s = SloTracker(window_seconds=10.0, clock=lambda: 0.0)
            for _, good, latency in outcomes.prune():
                oracle_s.record(ok=good, latency=latency)
            assert slo.snapshot() == oracle_s.snapshot()


class TestSloTracker:
    def test_availability_budget_and_breach(self):
        t = SloTracker(
            (SloObjective(name="avail", target=0.9),),
            clock=lambda: 0.0,
        )
        for _ in range(18):
            t.record(ok=True, latency=0.01)
        t.record(ok=False, latency=0.01)
        obj = t.snapshot()["objectives"][0]
        # 19 requests, budget = 1.9 bad allowed, 1 consumed: not breached
        assert obj["bad"] == 1 and not obj["breached"]
        t.record(ok=False, latency=0.01)
        t.record(ok=False, latency=0.01)
        obj = t.snapshot()["objectives"][0]
        assert obj["bad"] == 3 and obj["breached"]
        assert obj["budget_remaining_fraction"] == 0.0

    def test_latency_objective_counts_slow_ok_as_bad(self):
        t = SloTracker(
            (SloObjective(name="lat", target=0.5, latency_threshold=1.0),),
            clock=lambda: 0.0,
        )
        t.record(ok=True, latency=0.5)
        t.record(ok=True, latency=5.0)  # ok but slow: burns budget
        obj = t.snapshot()["objectives"][0]
        assert obj["good"] == 1 and obj["bad"] == 1

    def test_empty_window_is_compliant(self):
        snap = SloTracker(default_objectives()).snapshot()
        for obj in snap["objectives"]:
            assert obj["compliance"] == 1.0
            assert not obj["breached"]
            assert obj["budget_remaining_fraction"] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="target"):
            SloObjective(name="x", target=0.0)
        with pytest.raises(ValueError, match="duplicate"):
            SloTracker((
                SloObjective(name="x", target=0.5),
                SloObjective(name="x", target=0.9),
            ))


# ---------------------------------------------------------------------------
# Alert rules
# ---------------------------------------------------------------------------
class TestAlertRules:
    def window(self, **overrides):
        snap = {"count": 10, "rate": 1.0, "sum": 5.0, "mean": 0.5,
                "min": 0.1, "max": 2.0, "p50": 0.4, "p95": 1.5, "p99": 2.0}
        snap.update(overrides)
        return snap

    def slo(self, remaining=1.0, breached=False, name="availability"):
        return {"objectives": [{
            "name": name, "budget_remaining_fraction": remaining,
            "breached": breached,
        }]}

    def test_threshold_fires_above(self):
        rule = AlertRule(name="p99_high", metric="p99", above=1.0)
        firing, detail = rule.check(self.window(p99=2.0), None)
        assert firing and detail["value"] == 2.0
        firing, _ = rule.check(self.window(p99=0.5), None)
        assert not firing

    def test_threshold_min_count_suppresses_idle_noise(self):
        rule = AlertRule(name="p99_high", metric="p99", above=1.0,
                         min_count=5)
        assert not rule.check(self.window(count=1, p99=99.0), None)[0]
        assert rule.check(self.window(count=5, p99=99.0), None)[0]

    def test_budget_burn_fires_past_max_burn_or_breach(self):
        rule = AlertRule(name="burn", kind="budget_burn",
                         objective="availability", max_burn=0.5)
        assert not rule.check(None, self.slo(remaining=0.8))[0]
        firing, detail = rule.check(None, self.slo(remaining=0.2))
        assert firing and detail["burn"] == pytest.approx(0.8)
        # an outright breach fires regardless of the burn fraction
        assert rule.check(None, self.slo(remaining=1.0, breached=True))[0]
        # unknown objective never fires
        assert not rule.check(None, self.slo(name="other"))[0]

    def test_validation(self):
        with pytest.raises(ValueError, match="name"):
            AlertRule(name="")
        with pytest.raises(ValueError, match="above/below"):
            AlertRule(name="x")
        with pytest.raises(ValueError, match="metric"):
            AlertRule(name="x", metric="p42", above=1.0)
        with pytest.raises(ValueError, match="objective"):
            AlertRule(name="x", kind="budget_burn")
        with pytest.raises(ValueError, match="kind"):
            AlertRule(name="x", kind="pager")

    def test_engine_emits_transitions_only(self):
        log = EventLog(capacity=64)
        engine = AlertEngine((
            AlertRule(name="p99_high", metric="p99", above=1.0),
        ))
        hot, cold = self.window(p99=2.0), self.window(p99=0.1)
        engine.evaluate(hot, None, event_log=log)
        engine.evaluate(hot, None, event_log=log)   # still firing: silent
        engine.evaluate(cold, None, event_log=log)  # resolves
        engine.evaluate(cold, None, event_log=log)  # still quiet: silent
        kinds = [e.kind for e in log.events()]
        assert kinds == ["alert.firing", "alert.resolved"]
        assert log.events()[0].fields["rule"] == "p99_high"
        assert engine.fired_total == 1 and engine.resolved_total == 1
        assert engine.active() == []

    def test_engine_refires_after_resolve(self):
        engine = AlertEngine((
            AlertRule(name="p99_high", metric="p99", above=1.0),
        ))
        hot, cold = self.window(p99=2.0), self.window(p99=0.1)
        for snap in (hot, cold, hot):
            active = engine.evaluate(snap, None)
        assert engine.fired_total == 2 and engine.resolved_total == 1
        assert [a["rule"] for a in active] == ["p99_high"]

    def test_default_rules_match_default_objectives(self):
        names = {r.name for r in default_alert_rules()}
        assert names == {
            "latency_p99_high", "availability_budget_burn",
            "latency_slo_budget_burn",
        }
        objectives = {o.name for o in default_objectives()}
        for rule in default_alert_rules():
            if rule.kind == "budget_burn":
                assert rule.objective in objectives

    def test_duplicate_rule_names_rejected(self):
        rule = AlertRule(name="x", metric="p99", above=1.0)
        with pytest.raises(ValueError, match="duplicate"):
            AlertEngine((rule, rule))


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------
class TestPromText:
    def _names(self, text):
        return [
            line.split("{")[0].split(" ")[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        ]

    def test_names_are_valid_and_prefixed(self):
        assert prom_name("service.queue_depth") == "repro_service_queue_depth"
        assert prom_name("a b/c") == "repro_a_b_c"
        out = PromText()
        out.counter("plancache.hits", 3)
        out.gauge("service.queue_depth", 2, peak=7)
        out.summary(
            "service.latency_seconds",
            {"count": 4, "sum": 1.0, "p50": 0.2, "p95": 0.4, "p99": 0.4},
        )
        text = out.render()
        for name in self._names(text):
            assert PROM_NAME_RE.match(name), name

    def test_counter_gets_total_suffix(self):
        out = PromText()
        out.counter("service.compiles", 5)
        text = out.render()
        assert "# TYPE repro_service_compiles_total counter" in text
        assert "repro_service_compiles_total 5" in text

    def test_gauge_emits_peak_family(self):
        out = PromText()
        out.gauge("service.queue_depth", 2, peak=9)
        text = out.render()
        assert "repro_service_queue_depth 2" in text
        assert "repro_service_queue_depth_peak 9" in text

    def test_summary_quantiles(self):
        out = PromText()
        out.summary(
            "service.latency_seconds",
            {"count": 10, "sum": 2.5, "p50": 0.2, "p95": 0.4, "p99": 0.5},
        )
        text = out.render()
        assert 'repro_service_latency_seconds{quantile="0.5"} 0.2' in text
        assert 'repro_service_latency_seconds{quantile="0.99"} 0.5' in text
        assert "repro_service_latency_seconds_sum 2.5" in text
        assert "repro_service_latency_seconds_count 10" in text

    def test_empty_summary_keeps_family_without_quantiles(self):
        out = PromText()
        out.summary("idle.seconds", {"count": 0, "sum": 0.0, "p50": 0.0})
        text = out.render()
        assert "quantile" not in text
        assert "repro_idle_seconds_count 0" in text

    def test_duplicate_family_rejected(self):
        out = PromText()
        out.gauge("x", 1)
        with pytest.raises(ValueError, match="twice"):
            out.gauge("x", 2)

    def test_registry_round_trip(self):
        m = MetricsRegistry()
        m.counter("service.compiles").inc(2)
        m.gauge("service.queue_depth").set(3)
        m.histogram("service.wait_seconds").observe(0.25)
        text = registry_to_prom(m.snapshot())
        assert "repro_service_compiles_total 2" in text
        assert "repro_service_queue_depth 3" in text
        assert 'repro_service_wait_seconds{quantile="0.5"} 0.25' in text


# ---------------------------------------------------------------------------
# Status HTTP server
# ---------------------------------------------------------------------------
@pytest.mark.timeout(60)
class TestStatusServer:
    def _server(self, **overrides):
        providers = {
            "metrics": lambda: "repro_up 1\n",
            "slo": lambda: {"queue_depth": 0},
            "requests": lambda rid, limit: json.dumps(
                {"request_id": rid, "limit": limit}
            ) + "\n",
            "health": lambda: {"ok": True},
        }
        providers.update(overrides)
        return StatusServer(**providers)

    def test_endpoints_and_content_types(self):
        with self._server() as server:
            status, ctype, body = _get(server.url + "/metrics")
            assert status == 200
            assert ctype.startswith("text/plain; version=0.0.4")
            assert body == b"repro_up 1\n"
            status, ctype, body = _get(server.url + "/slo")
            assert json.loads(body) == {"queue_depth": 0}
            assert ctype.startswith("application/json")
            status, ctype, body = _get(server.url + "/healthz")
            assert json.loads(body) == {"ok": True}
            status, ctype, body = _get(
                server.url + "/requests?request_id=7&limit=3"
            )
            assert ctype.startswith("application/x-ndjson")
            assert json.loads(body) == {"request_id": 7, "limit": 3}

    def test_unknown_path_404_lists_endpoints(self):
        with self._server() as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/nope")
            assert err.value.code == 404
            assert "/metrics" in json.loads(err.value.read())["endpoints"]

    def test_bad_query_400(self):
        with self._server() as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/requests?request_id=banana")
            assert err.value.code == 400

    def test_provider_exception_500_not_fatal(self):
        def boom():
            raise RuntimeError("provider bug")

        with self._server(health=boom) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/healthz")
            assert err.value.code == 500
            assert "provider bug" in json.loads(err.value.read())["error"]
            # the server survives: the next scrape still works
            status, _, _ = _get(server.url + "/metrics")
            assert status == 200


# ---------------------------------------------------------------------------
# End-to-end request-id propagation through the service
# ---------------------------------------------------------------------------
@pytest.mark.timeout(120)
class TestRequestIdPropagation:
    def test_one_submit_one_correlated_trace(self):
        """Every event one submit causes — admission, plan-cache lookup,
        compile, execution, completion — carries the same request_id."""
        with ExecutionService(ServiceConfig(workers=2)) as svc:
            req = edge_request(
                size=40, mode="execute",
                inputs=find_edges_inputs(40, 40, 8, 2),
            )
            ticket = svc.submit(req)
            assert ticket.result(timeout=60).ok
            timeline = svc.request_timeline(ticket.id)
        assert timeline, "a completed request must have a timeline"
        assert all(e.request_id == ticket.id for e in timeline)
        kinds = [e.kind for e in timeline]
        # the end-to-end order: admission -> dequeue -> cache lookup ->
        # compile -> execute -> completion
        assert kinds[0] == "service.admit"
        assert kinds[-1] == "service.done"
        for stage in (
            "service.start", "compile.start", "plancache.miss",
            "plancache.store", "compile.done", "service.compile_done",
            "service.execute_done",
        ):
            assert stage in kinds, f"missing {stage} in {kinds}"
        assert kinds.index("service.admit") < kinds.index("compile.start")
        assert kinds.index("compile.done") < kinds.index(
            "service.execute_done"
        )
        # seq strictly increases: one totally ordered trace
        seqs = [e.seq for e in timeline]
        assert seqs == sorted(seqs)

    def test_retry_events_stay_correlated(self):
        spec = FaultSpec(transfer_failure_rate=0.2, seed=3)
        config = ServiceConfig(workers=2, fault_spec=spec)
        with ExecutionService(config) as svc:
            ticket = svc.submit(edge_request(
                size=40, mode="execute",
                inputs=find_edges_inputs(40, 40, 8, 2),
            ))
            response = ticket.result(timeout=60)
            timeline = svc.request_timeline(ticket.id)
        assert response.ok and response.retries > 0
        retries = [e for e in timeline if e.kind == "service.retry"]
        faults = [e for e in timeline if e.kind == "sim.fault"]
        assert len(retries) == response.retries
        assert faults, "injected faults must surface as sim.fault events"
        assert all(e.request_id == ticket.id for e in retries + faults)

    def test_dedupe_join_references_leader(self, monkeypatch):
        """Single-flight followers' timelines must point at the leader
        whose compile produced the shared plan."""
        release = threading.Event()
        original = Framework.compile

        def blocking_compile(self, template, **kwargs):
            assert release.wait(30), "test forgot to release the leader"
            return original(self, template, **kwargs)

        monkeypatch.setattr(Framework, "compile", blocking_compile)
        with ExecutionService(ServiceConfig(workers=4)) as svc:
            tickets = [svc.submit(edge_request()) for _ in range(4)]

            def joined():
                return svc.metrics_snapshot()["counters"].get(
                    "service.singleflight_joins", 0
                ) == 3

            deadline = 10.0
            import time as _time
            t0 = _time.monotonic()
            while not joined() and _time.monotonic() - t0 < deadline:
                _time.sleep(0.005)
            assert joined()
            release.set()
            responses = [t.result(timeout=60) for t in tickets]
            timelines = {
                t.id: svc.request_timeline(t.id) for t in tickets
            }
        followers = [r for r in responses if r.deduped_from is not None]
        assert len(followers) == 3
        leader_ids = {r.deduped_from for r in followers}
        assert len(leader_ids) == 1
        (leader_id,) = leader_ids
        # the leader really did the compile...
        leader_kinds = [e.kind for e in timelines[leader_id]]
        assert "service.compile_done" in leader_kinds
        # ...and each follower's own trace references the leader
        for resp in followers:
            joins = [
                e for e in timelines[resp.request_id]
                if e.kind == "service.dedupe_join"
            ]
            assert len(joins) == 1
            assert joins[0].fields["leader_request_id"] == leader_id
            assert joins[0].request_id == resp.request_id

    def test_telemetry_disabled_is_silent_and_harmless(self):
        config = ServiceConfig(workers=2, telemetry_events=0)
        with ExecutionService(config) as svc:
            ticket = svc.submit(edge_request(size=40))
            assert ticket.result(timeout=60).ok
            assert svc.request_timeline(ticket.id) == []
            assert svc.events.total_emitted == 0

    def test_chrome_export_single_track(self):
        with ExecutionService(ServiceConfig(workers=1)) as svc:
            ticket = svc.submit(edge_request(size=40))
            assert ticket.result(timeout=60).ok
            trace = svc.request_chrome_trace(ticket.id)
        assert trace[0]["ph"] == "M"  # track metadata first
        track = trace[0]["pid"]
        assert all(e["pid"] == track for e in trace), "one correlated track"
        spans = [e for e in trace if e["ph"] == "X"]
        assert spans, "seconds-carrying events must become duration spans"
        assert json.dumps(trace)  # JSON-serializable as a whole


# ---------------------------------------------------------------------------
# Service exposition endpoints
# ---------------------------------------------------------------------------
@pytest.mark.timeout(120)
class TestServiceStatusEndpoint:
    def test_metrics_slo_requests_health(self):
        with ExecutionService(ServiceConfig(workers=2)) as svc:
            server = svc.serve_status()
            tickets = [
                svc.submit(edge_request(size=(48, 64)[i % 2]))
                for i in range(6)
            ]
            assert all(t.result(timeout=60).ok for t in tickets)

            _, ctype, body = _get(server.url + "/metrics")
            assert ctype.startswith("text/plain; version=0.0.4")
            prom = body.decode()
            assert "repro_service_queue_depth " in prom
            assert 'repro_service_latency_seconds{quantile="0.5"}' in prom
            assert 'repro_service_latency_seconds{quantile="0.99"}' in prom
            assert "repro_plancache_hits_total " in prom
            assert "repro_service_submitted_total 6" in prom
            for line in prom.splitlines():
                if line and not line.startswith("#"):
                    name = line.split("{")[0].split(" ")[0]
                    assert PROM_NAME_RE.match(name), line

            _, _, body = _get(server.url + "/slo")
            snap = json.loads(body)
            assert snap["window"]["count"] == 6
            assert snap["counters"]["service.completed"] == 6
            assert snap["shards"][0]["shard"] == "local/0"
            assert {o["name"] for o in snap["slo"]["objectives"]} == {
                "availability", "latency_1s",
            }

            rid = tickets[0].id
            _, _, body = _get(server.url + f"/requests?request_id={rid}")
            lines = body.decode().strip().splitlines()
            assert lines
            assert all(
                json.loads(line)["request_id"] == rid for line in lines
            )

            _, _, body = _get(server.url + "/healthz")
            assert json.loads(body)["ok"] is True

            with pytest.raises(RuntimeError, match="already running"):
                svc.serve_status()
        # close() shut the server down
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(server.url + "/healthz", timeout=2)

    def test_custom_slo_objectives_flow_through(self):
        config = ServiceConfig(
            workers=1,
            slo_objectives=(SloObjective(name="tight", target=0.5),),
        )
        with ExecutionService(config) as svc:
            svc.submit(edge_request(size=40)).result(timeout=60)
            snap = svc.live_snapshot()
            prom = svc.prom_text()
        assert [o["name"] for o in snap["slo"]["objectives"]] == ["tight"]
        assert "repro_slo_tight_compliance 1" in prom

    def test_event_bus_health_exposed_in_prom(self):
        with ExecutionService(ServiceConfig(workers=1)) as svc:
            svc.submit(edge_request(size=40)).result(timeout=60)
            prom = svc.prom_text()
        assert "repro_events_emitted_total " in prom
        assert "repro_events_dropped_total 0" in prom
        assert "repro_events_capacity 4096" in prom
        assert "repro_alerts_active 0" in prom
        assert "repro_alerts_fired_total 0" in prom

    def test_alert_rules_fire_through_the_service(self):
        """An impossible latency bound fires on the first completion;
        the transition lands in the event bus and the snapshot."""
        config = ServiceConfig(
            workers=1,
            alert_rules=(AlertRule(
                name="any_latency", metric="max", above=0.0,
                description="fires on any completed request",
            ),),
        )
        with ExecutionService(config) as svc:
            assert svc.submit(edge_request(size=40)).result(timeout=60).ok
            snap = svc.live_snapshot()
            prom = svc.prom_text()
            firing = svc.events.events(kind="alert.firing")
        alerts = snap["alerts"]
        assert [a["rule"] for a in alerts["active"]] == ["any_latency"]
        assert alerts["fired_total"] == 1
        assert "repro_alerts_active 1" in prom
        assert "repro_alerts_fired_total 1" in prom
        assert len(firing) == 1
        assert firing[0].fields["rule"] == "any_latency"
        assert firing[0].fields["rule_kind"] == "threshold"
