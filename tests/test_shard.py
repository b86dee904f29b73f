"""Sharded multi-process serving tier (repro.service.shard) + batching.

The acceptance spine of the sharded tier: plan-key routing lands
identical templates on one shard (16 submissions over 4 templates =
exactly 4 compiles fleet-wide), results are byte-identical to the
single-process tier (the differential harness gains a shard
dimension), telemetry aggregates across every shard's event stream,
and batching records per-request provenance (``batched_with`` /
``deduped_from``) with fleet-global ids.  A compile whose plan is cached
is answered by the router itself, identically to a shard's answer.
"""

import dataclasses
import hashlib
import json
import os
import sys
import threading
import time

import pytest

from .differential import (
    EXECUTORS,
    differential_check,
    make_service_runner,
    random_inputs,
    random_operator_graph,
)
from repro.cli import main
from repro.core.filelock import FileLock
from repro.core.framework import CompileOptions, Framework
from repro.core.plancache import plan_key
from repro.core.serialize import plan_to_dict
from repro.gpusim import XEON_WORKSTATION, GpuDevice
from repro.obs.flight import (
    POSTMORTEM_BASENAME,
    harvest_postmortem,
    journal_dir,
    list_segments,
)
from repro.obs.live import merge_slo_snapshots, merge_window_samples
from repro.service import (
    ExecutionService,
    QueueFullError,
    RequestStatus,
    ServiceConfig,
    ServiceRequest,
    ShardDiedError,
    ShardedExecutionService,
)
from repro.service.ipc import INTERNS_PER_PLAN
from repro.templates import find_edges_graph, find_edges_inputs

DEV = GpuDevice(name="shard-dev", memory_bytes=8 * 1024 * 1024)


def edge_request(size=64, kernel=8, **kwargs):
    kwargs.setdefault("label", f"edge{size}")
    return ServiceRequest(
        template=find_edges_graph(size, size, kernel, 2),
        device=DEV,
        host=XEON_WORKSTATION,
        **kwargs,
    )


def fleet(shards=3, **config_kwargs):
    config_kwargs.setdefault("workers", 2)
    config_kwargs.setdefault("max_queue_depth", 256)
    return ShardedExecutionService(
        ServiceConfig(**config_kwargs), shards=shards
    )


class TestRoutingAndDedupe:
    def test_16_requests_4_templates_4_compiles(self):
        """The headline invariant: identical templates route to one
        shard, so the fleet compiles each template exactly once."""
        with fleet(shards=3) as svc:
            tickets = [
                svc.submit(edge_request(size=32 + 8 * (i % 4)))
                for i in range(16)
            ]
            responses = [t.result(timeout=120) for t in tickets]
            snap = svc.live_snapshot()
        assert all(r.ok for r in responses)
        assert snap["counters"]["service.compiles"] == 4
        assert snap["counters"]["service.dedupe_hits"] == 12
        assert snap["plan_cache"]["misses"] == 4

    def test_identical_requests_share_one_shard(self):
        with fleet(shards=4) as svc:
            owners = {svc.route(edge_request(size=48)) for _ in range(8)}
            assert len(owners) == 1

    def test_global_ids_are_unique_and_provenance_is_global(self):
        """deduped_from must reference the *fleet-global* leader id, not
        the winning shard's local counter.  A plug request holds the
        single worker while identical requests pile up, so the join is
        deterministic (they coalesce into one batch behind the plug)."""
        with fleet(shards=1, workers=1, batch_window=0.05) as svc:
            svc.submit(edge_request(size=96, label="plug"))
            tickets = [svc.submit(edge_request(size=40)) for _ in range(4)]
            ids = [t.id for t in tickets]
            assert len(set(ids)) == len(ids)
            responses = [t.result(timeout=120) for t in tickets]
        deduped = [r for r in responses if r.deduped_from is not None]
        assert deduped, "expected at least one dedupe join in the batch"
        for r in deduped:
            assert r.deduped_from in ids, (
                f"deduped_from={r.deduped_from} is not a fleet-global id "
                f"({ids})"
            )
            assert r.deduped_from != r.request_id

    def test_repeated_request_is_answered_by_the_router(self):
        # the repeat is a cached compile: the router serves it in submit()
        with fleet(shards=2) as svc:
            first = svc.submit(edge_request()).result(timeout=120)
            second = svc.submit(edge_request()).result(timeout=120)
            counters = svc.live_snapshot()["counters"]
        assert first.ok and not first.deduped
        assert second.ok and second.deduped
        assert counters["service.plan_cache_hits"] == 1

    def test_single_shard_fleet_works(self):
        with fleet(shards=1) as svc:
            assert svc.submit(edge_request()).result(timeout=120).ok

    @pytest.mark.parametrize(
        "pb_max_ops, prefix", [(64, "pb"), (1, "heuristic")]
    )
    def test_auto_planner_through_the_fleet(self, pb_max_ops, prefix):
        """``planner="auto"`` resolves by the same rule in the router's
        route key and in the shard (it used to raise AttributeError in
        ``submit``): the 3-operator edge template is PB-planned at or
        under ``pb_max_ops`` and heuristic above it."""
        request = edge_request(planner="auto")
        assert len(request.template.ops) == 3
        with fleet(shards=2, pb_max_ops=pb_max_ops) as svc:
            response = svc.submit(request).result(timeout=120)
        assert response.ok
        assert response.planner_used.startswith(prefix)

    def test_submit_after_close_raises(self):
        svc = fleet(shards=1)
        svc.close()
        from repro.service import ServiceClosedError

        with pytest.raises(ServiceClosedError):
            svc.submit(edge_request())


def forwarded(svc):
    """The ids of the submit frames ``svc`` sends from now on."""
    sent, send = [], svc._send

    def spy(shard, message):
        if message["kind"] == "submit":
            sent.append(message["id"])
        send(shard, message)

    svc._send = spy
    return sent


def entry_path(svc, request):
    """Where the fleet's shared disk tier keeps ``request``'s plan."""
    options = request.compile_options(svc.config.pb_max_ops)
    key = plan_key(request.template, request.device, options)
    return os.path.join(svc.config.shared_cache_dir, f"{key}.json")


def plan_digest(plan):
    blob = json.dumps(plan_to_dict(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def served(response):
    """What must not depend on which process answered a hit."""
    return (
        plan_digest(response.value.plan),
        response.planner_used,
        response.value.source,
        response.deduped,
        response.deduped_from,
    )


class TestRouterServesHits:
    """A compile whose plan is cached is answered by the router on the
    submitting thread; only work crosses the pipe."""

    @pytest.mark.parametrize("planner", ["heuristic", "pb"])
    def test_router_hit_is_the_shard_hit(self, planner):
        request = edge_request(planner=planner)
        with fleet(shards=1) as svc:
            sent = forwarded(svc)
            miss = svc.submit(request).result(timeout=120)
            router_hit = svc.submit(request).result(timeout=120)
            assert len(sent) == 1
            # Make the router forget the plan, so the shard answers.
            os.remove(entry_path(svc, request))
            svc._router.plan_cache.clear()
            shard_hit = svc.submit(request).result(timeout=120)
            assert len(sent) == 2
        assert miss.ok and router_hit.ok and shard_hit.ok
        assert served(router_hit) == served(shard_hit)
        assert router_hit.deduped and router_hit.deduped_from is None
        direct = Framework(
            DEV, host=XEON_WORKSTATION, plan_cache=False,
            options=request.compile_options(ServiceConfig().pb_max_ops),
        ).compile(request.template)
        assert served(router_hit)[:3] == (
            plan_digest(direct.plan), direct.source, direct.source
        )

    def test_router_hit_counts_once_in_the_fleet(self):
        with fleet(shards=2) as svc:
            assert svc.submit(edge_request()).result(timeout=120).ok
            sent = forwarded(svc)
            ticket = svc.submit(edge_request())
            assert ticket.done()  # resolved on this thread
            assert ticket.result(timeout=1).ok
            snap = svc.live_snapshot()
            kinds = [e.kind for e in svc.request_timeline(ticket.id)]
        assert sent == []
        counters = snap["counters"]
        assert counters["service.submitted"] == 2
        assert counters["service.dedupe_hits"] == 1
        assert counters["service.plan_cache_hits"] == 1
        assert counters["service.compiles"] == 1
        assert snap["router"]["shard"] == "router"
        assert snap["router"]["window"]["count"] == 1
        assert snap["window"]["count"] == 2
        assert "router" not in [s["shard"] for s in snap["shards"]]
        assert "service.admit" in kinds and "service.done" in kinds

    def test_non_resident_key_is_forwarded_once(self):
        with fleet(shards=2) as svc:
            sent = forwarded(svc)
            ticket = svc.submit(edge_request())
            assert ticket.result(timeout=120).ok
            snap = svc.live_snapshot()
            router = svc._router.metrics_snapshot()["counters"]
        assert sent == [ticket.id]
        assert snap["counters"]["service.compiles"] == 1
        assert "service.submitted" not in router
        assert snap["router"]["plan_cache"]["misses"] == 0

    def test_a_plan_a_shard_wrote_is_served_by_the_router(self):
        request = edge_request()
        with fleet(shards=2) as svc:
            sent = forwarded(svc)
            assert svc.submit(request).result(timeout=120).ok
            assert os.path.exists(entry_path(svc, request))
            assert len(svc._router.plan_cache) == 0
            assert svc.submit(request).result(timeout=120).ok
            assert len(sent) == 1
            assert len(svc._router.plan_cache) == 1

    def test_corrupt_disk_entry_is_forwarded_and_counted(self):
        request = edge_request()
        with fleet(shards=1) as svc:
            os.makedirs(svc.config.shared_cache_dir, exist_ok=True)
            with open(entry_path(svc, request), "w") as fh:
                fh.write("{not json")
            sent = forwarded(svc)
            ticket = svc.submit(request)
            response = ticket.result(timeout=120)
            snap = svc.live_snapshot()
        assert response.ok and not response.deduped
        assert sent == [ticket.id]
        assert snap["router"]["plan_cache"]["corrupt_entries"] == 1
        assert snap["plan_cache"]["corrupt_entries"] == 1
        assert snap["counters"]["service.compiles"] == 1

    def test_router_has_no_worker_and_never_leads(self, monkeypatch):
        acquired = []
        acquire = FileLock.acquire

        def spy(lock):
            acquired.append(lock.path)
            return acquire(lock)

        with fleet(shards=1) as svc:
            # Shards are already forked: only this process sees the spy.
            monkeypatch.setattr(FileLock, "acquire", spy)
            for size in (40, 40, 48, 40, 48):
                assert svc.submit(edge_request(size=size)).result(
                    timeout=120).ok
            snap = svc.live_snapshot()
            assert svc._router._workers == []
        assert acquired == []
        assert snap["router"]["workers"] == 0
        assert snap["router"]["plan_cache"]["lock_waits"] == 0
        assert snap["counters"]["service.compiles"] == 2

    def test_a_cached_plan_survives_its_dead_shard(self):
        """The first observable piece of a crash-only fleet: a key whose
        plan is on the shared disk tier is answered with its owner dead;
        a key never compiled still fails fast."""
        with fleet(shards=2) as svc:
            owner = svc.route(edge_request(size=32))
            sizes = [s for s in range(40, 257, 8)
                     if svc.route(edge_request(size=s)) == owner]
            assert sizes, "2-shard ring gave every other size one shard"
            assert svc.submit(edge_request(size=32)).result(timeout=120).ok
            svc._shards[owner].process.kill()
            deadline = time.monotonic() + 30
            while svc._shards[owner].alive:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            response = svc.submit(edge_request(size=32)).result(timeout=10)
            assert response.status is RequestStatus.OK
            with pytest.raises(ShardDiedError):
                svc.submit(edge_request(size=sizes[0]))

    def test_concurrent_submitters_lose_no_count(self):
        """More submitting threads than cores, switching often, over keys
        the router and the shards both answer: every request is counted
        once, in the router's service or in a shard's."""
        requests = [edge_request(size=32 + 8 * i) for i in range(3)]
        responses = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with fleet(shards=2) as svc:

                def client(k):
                    for i in range(60):
                        ticket = svc.submit(requests[(i + k) % 3])
                        responses.append(ticket.result(timeout=120))

                threads = [threading.Thread(target=client, args=(k,))
                           for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                counters = svc.live_snapshot()["counters"]
        finally:
            sys.setswitchinterval(interval)
        assert len(responses) == 240 and all(r.ok for r in responses)
        assert counters["service.submitted"] == 240
        assert counters["service.ok"] == 240
        assert counters["service.compiles"] == 3
        assert counters["service.dedupe_hits"] == 237

    def test_a_miss_is_one_encode_frame_behind_one_route(self, monkeypatch):
        """The per-layer request table wraps these two module globals by
        name and reads ``len()`` of each frame: a miss must still cross
        as one ``encode_frame(...) -> bytes`` call after one
        ``HashRing.route``, or those rows go blind instead of red."""
        from repro.service.hashring import HashRing
        from repro.service.ipc import encode_frame

        route = HashRing.route
        frames, routes = [], []

        def encode_spy(message, *args, **kwargs):
            frame = encode_frame(message, *args, **kwargs)
            frames.append((message, frame))
            return frame

        def route_spy(ring, key):
            routes.append(key)
            return route(ring, key)

        with fleet(shards=1) as svc:
            monkeypatch.setattr("repro.service.ipc.encode_frame", encode_spy)
            monkeypatch.setattr(
                "repro.service.hashring.HashRing.route", route_spy
            )
            request = edge_request()
            assert svc.submit(request).result(timeout=120).ok
            monkeypatch.undo()
            assert routes == [svc.route_key(request)]
        submits = [f for m, f in frames if m.get("kind") == "submit"]
        assert len(submits) == 1
        assert isinstance(submits[0], bytes) and len(submits[0]) > 0


class TestByteIdentity:
    """The shard dimension of the differential matrix: any executor
    disagreement with the reference interpreter is a routing/IPC bug."""

    def test_edge_template_identical_across_tiers(self):
        graph = find_edges_graph(48, 48, 8, 2)
        inputs = find_edges_inputs(48, 48, 8, 2, seed=7)
        differential_check(
            graph, inputs, DEV, CompileOptions(),
            executors={
                "static": EXECUTORS["static"],
                "service": make_service_runner(shards=0),
                "service-sharded": make_service_runner(shards=2),
            },
        )

    def test_random_graph_identical_with_batching(self):
        graph = random_operator_graph(1234)
        inputs = random_inputs(graph, 1234)
        differential_check(
            graph, inputs, DEV, CompileOptions(),
            executors={
                "service-sharded-batched": make_service_runner(
                    shards=2, batch_window=0.02
                ),
            },
        )


class TestAggregatedTelemetry:
    def test_snapshot_lists_every_shard(self):
        with fleet(shards=3) as svc:
            for i in range(6):
                svc.submit(edge_request(size=32 + 8 * i)).result(timeout=120)
            snap = svc.live_snapshot()
        labels = [s["shard"] for s in snap["shards"]]
        assert sorted(labels) == ["proc/0", "proc/1", "proc/2"]
        assert snap["shard_count"] == 3
        assert snap["live_shards"] == 3
        # The fleet window covers every completed request even though no
        # single shard saw them all.
        assert snap["window"]["count"] == 6
        per_shard = sum(s["window"]["count"] for s in snap["shards"])
        assert per_shard == 6
        assert snap["counters"]["service.ok"] == 6
        for obj in snap["slo"]["objectives"]:
            assert obj["total"] == 6

    def test_fleet_percentiles_merge_raw_samples(self):
        """p99 must come from the union of samples, not shard averages:
        one slow shard dominates the fleet tail."""
        fast = [(0.0, 0.010)] * 99
        slow = [(0.0, 1.0)] * 99
        merged = merge_window_samples([fast, slow], 60.0)
        assert merged["count"] == 198
        assert merged["p99"] == 1.0  # the tail survives the merge
        assert merged["p50"] == 0.010
        # Averaging per-shard p99s would have reported ~0.5 for p50.

    def test_slo_merge_sums_budgets(self):
        a = {"window_seconds": 60.0, "objectives": [{
            "name": "availability", "target": 0.9,
            "latency_threshold": None, "total": 100, "good": 100, "bad": 0,
        }]}
        b = {"window_seconds": 60.0, "objectives": [{
            "name": "availability", "target": 0.9,
            "latency_threshold": None, "total": 100, "good": 70, "bad": 30,
        }]}
        merged = merge_slo_snapshots([a, b])
        obj = merged["objectives"][0]
        assert obj["total"] == 200 and obj["bad"] == 30
        assert obj["compliance"] == pytest.approx(170 / 200)
        assert obj["breached"]  # 30 bad > (1-0.9)*200 = 20 budget

    def test_request_timeline_reaches_the_owning_shard(self):
        with fleet(shards=2) as svc:
            ticket = svc.submit(edge_request())
            assert ticket.result(timeout=120).ok
            timeline = svc.request_timeline(ticket.id)
        kinds = [e.kind for e in timeline]
        assert "service.admit" in kinds
        assert "service.done" in kinds

    def test_prom_text_exposes_fleet_series(self):
        with fleet(shards=2) as svc:
            svc.submit(edge_request()).result(timeout=120)
            text = svc.prom_text()
        assert "repro_service_submitted_total 1" in text
        assert "repro_service_latency_seconds_count 1" in text
        assert "repro_service_shards_live 2" in text

    def test_status_endpoint_serves_aggregate(self):
        import json as _json
        import urllib.request

        with fleet(shards=2) as svc:
            svc.submit(edge_request()).result(timeout=120)
            server = svc.serve_status(port=0)
            with urllib.request.urlopen(
                f"{server.url}/slo", timeout=10
            ) as resp:
                snap = _json.load(resp)
        assert snap["shard_count"] == 2
        assert len(snap["shards"]) == 2


class TestShardFailure:
    def test_dead_shard_fails_fast_and_fleet_survives(self):
        with fleet(shards=2) as svc:
            # Find two templates owned by different shards.
            by_owner = {}
            for size in range(32, 257, 8):
                by_owner.setdefault(svc.route(edge_request(size=size)), size)
                if len(by_owner) == 2:
                    break
            assert len(by_owner) == 2, "2-shard ring left one shard idle"
            (dead_name, dead_size), (live_name, live_size) = by_owner.items()
            svc._shards[dead_name].process.terminate()
            deadline = time.monotonic() + 30
            while svc._shards[dead_name].alive:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with pytest.raises(ShardDiedError):
                svc.submit(edge_request(size=dead_size))
            assert svc.submit(
                edge_request(size=live_size)
            ).result(timeout=120).ok
            snap = svc.live_snapshot()
            assert snap["live_shards"] == 1
            assert snap["shard_count"] == 2
            live_rows = [s for s in snap["shards"] if s.get("alive", True)]
            dead_rows = [s for s in snap["shards"] if not s.get("alive", True)]
            assert [s["shard"] for s in live_rows] == [live_name]
            assert [s["shard"] for s in dead_rows] == [dead_name]
            assert "SIGTERM" in dead_rows[0]["exit_detail"]

    def test_inflight_requests_fail_with_explicit_error(self):
        with fleet(shards=1, workers=1) as svc:
            # Queue slow work, then kill the only shard mid-flight.
            tickets = [
                svc.submit(edge_request(size=128 + 32 * i, mode="simulate"))
                for i in range(3)
            ]
            svc._shards["proc/0"].process.kill()
            responses = [t.result(timeout=60) for t in tickets]
        failed = [r for r in responses if not r.ok]
        assert failed, "killing the shard should fail queued requests"
        for r in failed:
            assert r.status is RequestStatus.FAILED
            assert "died" in (r.error or "")
            assert "SIGKILL" in (r.error or "")


def big_simulate(label="plug"):
    """A request that holds a worker long enough to queue work behind."""
    return ServiceRequest(
        template=find_edges_graph(2048, 2048, 16, 4), device=DEV,
        host=XEON_WORKSTATION, mode="simulate", label=label,
    )


def mappings_under(obj, seen=None):
    """Every dict reachable from ``obj`` through the attributes of this
    repository's own objects (not into stdlib objects, nor into items)."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, dict):
        yield obj
    elif type(obj).__module__.startswith("repro."):
        names = list(getattr(type(obj), "__slots__", ()))
        names += list(getattr(obj, "__dict__", ()))
        for name in names:
            yield from mappings_under(getattr(obj, name, None), seen)


@pytest.mark.timeout(180)
class TestPipelinedAdmission:
    """Admission at the router: no ack, no per-request router state."""

    def test_router_state_does_not_grow_with_requests_served(self):
        """2,000 resolved requests over more templates than the tables
        hold: nothing the router keeps per shard outgrows the interning
        bound (it used to keep — and copy per response — one
        local->global entry per request ever served)."""
        entries = 2
        bound = INTERNS_PER_PLAN * entries
        requests = [edge_request(size=32 + 8 * i) for i in range(12)]
        with fleet(shards=1, plan_cache_entries=entries) as svc:
            served = 0
            while served < 2000:
                tickets = [
                    svc.submit(requests[(served + i) % len(requests)])
                    for i in range(100)
                ]
                assert all(t.result(timeout=120).ok for t in tickets)
                served += len(tickets)
            assert svc._pending == {}
            shard = svc._shards["proc/0"]
            assert shard.unanswered == 0
            sizes = [len(m) for m in mappings_under(shard)]
            assert sizes and max(sizes) <= bound, sizes
            assert len(shard.channel._sent) == bound  # and it did fill
            # a long-resolved id still reaches its shard's event stream
            last = tickets[-1]
            kinds = [e.kind for e in svc.request_timeline(last.id)]
            assert "service.admit" in kinds and "service.done" in kinds

    def test_queue_full_raises_from_submit_and_credits_return(self):
        with fleet(shards=1, workers=1, max_queue_depth=2) as svc:
            plug = svc.submit(big_simulate())
            queued = svc.submit(edge_request())
            with pytest.raises(QueueFullError, match="proc/0 has 2"):
                svc.submit(edge_request())
            assert plug.result(timeout=120).ok
            assert queued.result(timeout=120).ok
            # both answers returned their credit
            assert svc.submit(edge_request()).result(timeout=120).ok
            counters = svc.live_snapshot()["counters"]
        assert counters["service.rejected"] == 1
        assert counters["service.submitted"] == 3

    def test_shard_killed_mid_burst_resolves_every_ticket(self):
        """SIGKILL while a thread is pipelining submits: each request
        either has a ticket that resolves (answered before the kill, or
        FAILED with the exit detail) or its submit() raised.  The burst
        simulates, so every request crosses the pipe (the router answers
        a repeated compile itself)."""
        request = edge_request(mode="simulate")
        tickets, raised = [], []
        under_way = threading.Event()
        with fleet(shards=1, max_queue_depth=100_000) as svc:

            def burst():
                for i in range(5000):
                    try:
                        tickets.append(svc.submit(request))
                    except ShardDiedError as exc:
                        raised.append(exc)
                    if i == 50:
                        under_way.set()

            thread = threading.Thread(target=burst)
            thread.start()
            assert under_way.wait(timeout=60)
            svc._shards["proc/0"].process.kill()
            thread.join(timeout=120)
            assert not thread.is_alive()
            responses = [t.result(timeout=60) for t in tickets]
            assert svc._pending == {}
        assert len(tickets) + len(raised) == 5000
        assert raised, "the burst should have outlasted the shard"
        failed = [r for r in responses if not r.ok]
        assert failed or len(tickets) < 5000
        for r in failed:
            assert r.status is RequestStatus.FAILED
            assert "shard proc/0 died (" in r.error and "SIGKILL" in r.error

    def test_shard_side_rejection_fails_the_ticket(self):
        """The router's count keeps the shard's own queue check from
        ever firing; should a refusal arrive anyway (forced here by
        raising the router's limit over the shard's), it is the
        request's answer — not a ticket that never resolves."""
        with fleet(shards=1, workers=1, max_queue_depth=1) as svc:
            svc.config = dataclasses.replace(svc.config, max_queue_depth=64)
            tickets = [svc.submit(big_simulate())]
            tickets += [svc.submit(edge_request()) for _ in range(4)]
            responses = [t.result(timeout=120) for t in tickets]
            assert svc._pending == {}
        refused = [r for r in responses if not r.ok]
        assert refused, "a queue of 1 cannot hold 4 requests behind a plug"
        for r in refused:
            assert r.status is RequestStatus.FAILED
            assert "QueueFullError: queue depth 1" in r.error


@pytest.mark.timeout(180)
class TestFlightRecorderPostmortem:
    """The PR's acceptance spine: SIGKILL a shard mid-request, then
    reconstruct its final moments *purely from the on-disk journal* —
    the shard process is dead and the supervisor may be too."""

    def killed_fleet(self, flight_dir):
        """One shard, one worker, flight recorder on; three big
        simulate requests submitted and the shard killed as soon as it
        has admitted them, so every request is genuinely mid-flight
        when it dies.  ``submit()`` returning says nothing about the
        shard; a control RPC does — the pipe is FIFO, so once
        ``live_snapshot()`` answers, every earlier submit has been
        admitted and journalled."""
        cfg = ServiceConfig(workers=1, flight_dir=flight_dir)
        svc = ShardedExecutionService(cfg, shards=1)
        tickets = [svc.submit(big_simulate(f"r{i}")) for i in range(3)]
        svc.live_snapshot()
        svc._shards["proc/0"].process.kill()
        responses = [t.result(timeout=60) for t in tickets]
        return svc, tickets, responses

    def test_kill_harvest_and_reconstruct_from_disk(self, flight_dir, capsys):
        svc, tickets, responses = self.killed_fleet(flight_dir)
        try:
            # 1. every in-flight request failed with the exit detail
            for r in responses:
                assert not r.ok
                assert "SIGKILL" in (r.error or ""), r.error
            # 2. the supervisor harvested a post-mortem
            pm = svc.postmortem("proc/0")
            assert pm is not None
            assert pm["exit_code"] == -9
            assert pm["exit_detail"] == "killed by SIGKILL (-9)"
            assert not pm["clean_shutdown"]
            in_flight_ids = {e["request_id"] for e in pm["in_flight"]}
            assert in_flight_ids == {t.id for t in tickets}
            assert sorted(pm["orphaned_global_ids"]) == sorted(
                t.id for t in tickets
            )
            # 3. the artifact is on disk next to the segments
            jdir = journal_dir(flight_dir, "proc/0")
            assert os.path.exists(
                os.path.join(jdir, POSTMORTEM_BASENAME)
            )
            # 4. the dead shard surfaces in the fleet snapshot
            snap = svc.live_snapshot()
            dead = [s for s in snap["shards"] if not s.get("alive", True)]
            assert len(dead) == 1
            assert dead[0]["exit_code"] == -9
            assert dead[0]["in_flight_at_death"] == 3
            assert dead[0]["postmortem"] == jdir
        finally:
            svc.close()

        # 5. with every process gone, `repro postmortem` rebuilds the
        # timeline from nothing but the journal files
        assert main(["postmortem", jdir, "--json"]) == 0
        pm = json.loads(capsys.readouterr().out)
        assert pm["exit_detail"] == "killed by SIGKILL (-9)"
        timeline_ids = {
            r["request_id"] for r in pm["timeline"]
            if r.get("request_id") is not None
        }
        # the correlated ids in the reconstructed timeline are the
        # fleet-global ticket ids, intact across kill + harvest + CLI
        assert {t.id for t in tickets} <= timeline_ids
        kinds = [r["kind"] for r in pm["timeline"]]
        assert kinds[0] == "worker.start"
        assert "service.admit" in kinds
        assert {e["request_id"] for e in pm["in_flight"]} == {
            t.id for t in tickets
        }

    def test_corrupt_tail_segment_skipped_with_warning(
        self, flight_dir, capsys
    ):
        svc, tickets, _ = self.killed_fleet(flight_dir)
        svc.close()
        jdir = journal_dir(flight_dir, "proc/0")
        # simulate a torn page at the tail of the newest segment
        with open(list_segments(jdir)[-1], "ab") as fh:
            fh.write(b"\x00\xff" * 32)
        assert main(["postmortem", jdir, "--json"]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        pm = json.loads(captured.out)
        assert pm["warnings"], "tail damage must be reported"
        # ...but everything before the damage is still reconstructed
        assert {t.id for t in tickets} <= {
            r["request_id"] for r in pm["timeline"]
            if r.get("request_id") is not None
        }

    def test_clean_shutdown_journal_says_so(self, flight_dir):
        cfg = ServiceConfig(workers=1, flight_dir=flight_dir)
        with ShardedExecutionService(cfg, shards=1) as svc:
            assert svc.submit(edge_request()).result(timeout=120).ok
            snap = svc.live_snapshot()
            assert snap["shards"][0]["alive"] is True
        jdir = journal_dir(flight_dir, "proc/0")
        pm = harvest_postmortem(jdir, shard="proc/0", exit_code=0,
                                write_artifact=False)
        assert pm["clean_shutdown"]
        assert pm["in_flight"] == []
        assert pm["window"]["count"] == 1 and pm["window"]["ok"] == 1


class TestBatching:
    def plugged_service(self, **kwargs):
        """One worker, batching on: a plug request occupies the worker
        while compatible requests pile up behind it."""
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("batch_window", 0.05)
        kwargs.setdefault("max_queue_depth", 256)
        return ExecutionService(ServiceConfig(**kwargs))

    def test_batch_shares_one_compile_and_records_peers(self):
        with self.plugged_service() as svc:
            plug = svc.submit(edge_request(size=96, label="plug"))
            batch = [
                svc.submit(edge_request(size=64, label=f"b{i}"))
                for i in range(4)
            ]
            responses = [t.result(timeout=120) for t in batch]
            assert plug.result(timeout=120).ok
            counters = svc.metrics_snapshot()["counters"]
        assert all(r.ok for r in responses)
        batch_ids = {t.id for t in batch}
        batched = [r for r in responses if r.batched]
        assert len(batched) == len(responses), (
            f"all 4 queued requests should coalesce, got "
            f"{[r.to_dict() for r in responses]}"
        )
        for r in batched:
            # peers = the batch minus the request itself
            assert set(r.batched_with) == batch_ids - {r.request_id}
        # One compile for the whole batch; followers joined in-process.
        assert counters["service.batches"] == 1
        assert sum(1 for r in responses if not r.deduped) == 1
        leader = next(r for r in responses if not r.deduped)
        for r in responses:
            if r.deduped:
                assert r.deduped_from == leader.request_id
        assert counters["service.compiles"] == 2  # plug + batch leader

    def test_batch_respects_batch_max(self):
        with self.plugged_service(batch_max=3) as svc:
            svc.submit(edge_request(size=96, label="plug"))
            batch = [
                svc.submit(edge_request(size=64)) for _ in range(5)
            ]
            responses = [t.result(timeout=120) for t in batch]
        assert all(r.ok for r in responses)
        assert max(len(r.batched_with) for r in responses) <= 2

    def test_incompatible_requests_never_batch(self):
        with self.plugged_service() as svc:
            svc.submit(edge_request(size=96, label="plug"))
            a = svc.submit(edge_request(size=48))
            b = svc.submit(edge_request(size=56))
            ra, rb = a.result(timeout=120), b.result(timeout=120)
        assert ra.ok and rb.ok
        assert not ra.batched and not rb.batched

    def test_batch_window_zero_disables_batching(self):
        with ExecutionService(ServiceConfig(
            workers=1, batch_window=0.0, max_queue_depth=256
        )) as svc:
            svc.submit(edge_request(size=96, label="plug"))
            batch = [svc.submit(edge_request(size=64)) for _ in range(3)]
            responses = [t.result(timeout=120) for t in batch]
        assert all(not r.batched for r in responses)

    def test_sharded_batching_rewrites_global_ids(self):
        with ShardedExecutionService(
            ServiceConfig(
                workers=1, batch_window=0.05, max_queue_depth=256
            ),
            shards=2,
        ) as svc:
            plug_size = 96
            batch_size_px = 64
            # Make sure plug and batch share a shard so the plug blocks.
            if svc.route(edge_request(size=plug_size)) != svc.route(
                edge_request(size=batch_size_px)
            ):
                for candidate in range(104, 257, 8):
                    if svc.route(edge_request(size=candidate)) == svc.route(
                        edge_request(size=batch_size_px)
                    ):
                        plug_size = candidate
                        break
            svc.submit(edge_request(size=plug_size, label="plug"))
            batch = [
                svc.submit(edge_request(size=batch_size_px))
                for _ in range(4)
            ]
            ids = {t.id for t in batch}
            responses = [t.result(timeout=120) for t in batch]
        batched = [r for r in responses if r.batched]
        assert batched, "expected the queued requests to coalesce"
        for r in batched:
            assert set(r.batched_with) <= ids, (
                f"batched_with={r.batched_with} leaked shard-local ids "
                f"(global ids: {sorted(ids)})"
            )
