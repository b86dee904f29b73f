"""The multi-process fleet (repro.service.shard) + batching.

The acceptance spine of the fleet: one service in the router over a
pool of worker processes.  Plan-key routing lands identical templates
on one worker (16 submissions over 4 templates = exactly 4 compiles
fleet-wide), results are byte-identical to the single-process tier (the
differential harness gains a shard dimension), telemetry is the router
service's own and reading it crosses no pipe, and batching records
per-request provenance (``batched_with`` / ``deduped_from``) with the
caller's ids.  A compile whose plan is cached is answered by the router
itself, identically to a worker's answer; work is one frame each way.
"""

import hashlib
import json
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
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
from repro.gpusim.faults import FaultSpec
from repro.gpusim.memory import OutOfDeviceMemoryError
from repro.obs.flight import (
    POSTMORTEM_BASENAME,
    harvest_postmortem,
    journal_dir,
    list_segments,
    read_journal,
)
from repro.service import (
    ExecutionService,
    QueueFullError,
    RequestStatus,
    ServiceConfig,
    ServiceRequest,
    ShardDiedError,
    ShardedExecutionService,
)
from repro.service import service as service_module
from repro.service import worker as worker_module
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
    """The request ids of the calls ``svc`` sends to workers from now on."""
    sent, send = [], svc._send_call

    def spy(request_id, key, call):
        sent.append(request_id)
        return send(request_id, key, call)

    svc._send_call = spy
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


def wait_until(predicate, seconds=30):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline
        time.sleep(0.01)


def kill_and_wait(svc, name):
    """SIGKILL worker ``name`` and wait until the router has reaped it."""
    svc._pool[name].process.kill()
    wait_until(lambda: not svc._pool[name].alive)


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
            # Make the router forget the plan, so the worker answers.
            os.remove(entry_path(svc, request))
            svc.plan_cache.clear()
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
        assert snap["window"]["count"] == 2
        assert [s["shard"] for s in snap["shards"]] == ["proc/0", "proc/1"]
        assert "service.admit" in kinds and "service.done" in kinds

    def test_non_resident_key_is_forwarded_once(self):
        with fleet(shards=2) as svc:
            sent = forwarded(svc)
            ticket = svc.submit(edge_request())
            assert ticket.result(timeout=120).ok
            snap = svc.live_snapshot()
            router = svc.plan_cache.stats()
        assert sent == [ticket.id]
        assert snap["counters"]["service.compiles"] == 1
        assert snap["counters"]["service.submitted"] == 1
        assert router["misses"] == 0  # the worker's miss, not the router's
        assert snap["plan_cache"]["misses"] == 1

    def test_a_plan_a_shard_wrote_is_served_by_the_router(self):
        request = edge_request()
        with fleet(shards=2) as svc:
            sent = forwarded(svc)
            assert svc.submit(request).result(timeout=120).ok
            assert os.path.exists(entry_path(svc, request))
            assert len(svc.plan_cache) == 0
            assert svc.submit(request).result(timeout=120).ok
            assert len(sent) == 1
            assert len(svc.plan_cache) == 1

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
            router = svc.plan_cache.stats()
        assert response.ok and not response.deduped
        assert sent == [ticket.id]
        assert router["corrupt_entries"] == 1
        assert snap["plan_cache"]["corrupt_entries"] == 1
        assert snap["counters"]["service.compiles"] == 1

    def test_router_has_no_worker_and_never_leads(self, monkeypatch):
        """The router does no worker's work: it compiles only what is
        resident, so it never takes a plan's leadership lock — misses
        are the worker processes'."""
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
            router = svc.plan_cache.stats()
        assert acquired == []
        assert router["lock_waits"] == 0 and router["misses"] == 0
        assert snap["counters"]["service.compiles"] == 2

    def test_a_cached_plan_survives_its_dead_shard(self):
        """A key whose plan is on the shared disk tier is answered with
        its worker dead, and a key never compiled on the dead worker's
        arc fails over to the live one."""
        with fleet(shards=2) as svc:
            owner = svc.route(edge_request(size=32))
            sizes = [s for s in range(40, 257, 8)
                     if svc.route(edge_request(size=s)) == owner]
            assert sizes, "2-shard ring gave every other size one shard"
            assert svc.submit(edge_request(size=32)).result(timeout=120).ok
            kill_and_wait(svc, owner)
            response = svc.submit(edge_request(size=32)).result(timeout=10)
            assert response.status is RequestStatus.OK
            moved = svc.submit(edge_request(size=sizes[0]))
            assert moved.result(timeout=120).status is RequestStatus.OK

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
        ``HashRing.route``, or those rows go blind instead of red.  So
        must a ``simulate`` or ``execute`` — of a resident plan (the
        router looks it up, the worker runs) or of a never-seen one."""
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

        def work(size, mode):
            inputs = find_edges_inputs(size, size, 8, 2)
            return edge_request(size=size, mode=mode, inputs=(
                inputs if mode == "execute" else None))

        requests = [work(64, "compile"), work(64, "simulate"),
                    work(64, "execute"), work(72, "simulate"),
                    work(80, "execute")]
        with fleet(shards=1) as svc:
            for request in requests:
                del frames[:], routes[:]
                monkeypatch.setattr(
                    "repro.service.ipc.encode_frame", encode_spy)
                monkeypatch.setattr(
                    "repro.service.hashring.HashRing.route", route_spy
                )
                assert svc.submit(request).result(timeout=120).ok
                monkeypatch.undo()
                assert routes == [svc.route_key(request)], request.mode
                submits = [f for m, f in frames if m.get("kind") == "submit"]
                assert len(submits) == 1, (request.mode, request.label)
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
        # The router's window covers every completed request: it served
        # them all, whichever worker did the work.
        assert snap["window"]["count"] == 6
        assert all(s["alive"] and s["in_flight"] == 0 for s in snap["shards"])
        assert snap["counters"]["service.ok"] == 6
        for obj in snap["slo"]["objectives"]:
            assert obj["total"] == 6

    def test_telemetry_reads_write_no_frame(self, monkeypatch):
        """The fleet's telemetry is the router service's own: reading it
        asks no worker.  A forwarded request's timeline still shows what
        its call published in the worker."""
        from repro.service.ipc import encode_frame

        frames = []

        def encode_spy(message, *args, **kwargs):
            frames.append(message.get("kind"))
            return encode_frame(message, *args, **kwargs)

        with fleet(shards=2) as svc:
            ticket = svc.submit(edge_request())
            assert ticket.result(timeout=120).ok
            monkeypatch.setattr("repro.service.ipc.encode_frame", encode_spy)
            snap = svc.live_snapshot()
            text = svc.prom_text()
            depth = svc.queue_depth()
            timeline = svc.request_timeline(ticket.id)
            monkeypatch.undo()
        assert frames == []
        assert snap["counters"]["service.submitted"] == 1 and depth == 0
        assert "repro_service_submitted_total 1" in text
        kinds = [e.kind for e in timeline]
        assert kinds[0] == "service.admit" and kinds[-1] == "service.done"
        for kind in ("compile.start", "plancache.miss", "compile.done"):
            assert kind in kinds, kinds
        assert kinds.index("compile.done") < kinds.index(
            "service.compile_done"
        )

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
    def test_inflight_requests_fail_with_explicit_error(self):
        with fleet(shards=1, workers=1) as svc:
            # Queue slow work, then kill the only shard mid-flight.
            tickets = [
                svc.submit(edge_request(size=128 + 32 * i, mode="simulate"))
                for i in range(3)
            ]
            svc._pool["proc/0"].process.kill()
            responses = [t.result(timeout=60) for t in tickets]
            with pytest.raises(ShardDiedError, match="no live worker"):
                svc.submit(edge_request())
        failed = [r for r in responses if not r.ok]
        assert failed, "killing the shard should fail queued requests"
        for r in failed:
            assert r.status is RequestStatus.FAILED
            assert "died" in (r.error or "")
            assert "SIGKILL" in (r.error or "")

    def test_dead_shard_fails_fast_and_fleet_survives(self):
        """SIGKILL fails the calls in flight on the worker, with its exit
        status; the worker leaves the ring, and a never-compiled key on
        its arc is answered by the live worker, with the plan a direct
        compile gives."""
        plug = big_simulate(size=4096)
        with fleet(shards=2, workers=1) as svc:
            owner = svc.route(plug)
            sizes = [s for s in range(40, 257, 8)
                     if svc.route(edge_request(size=s)) == owner]
            assert sizes, "2-shard ring gave every other size one shard"
            ticket = svc.submit(plug)
            wait_until(lambda: svc._pool[owner].calls)
            kill_and_wait(svc, owner)
            response = ticket.result(timeout=60)
            assert response.status is RequestStatus.FAILED
            assert f"shard {owner} died (" in response.error
            assert "SIGKILL" in response.error
            request = edge_request(size=sizes[0])
            live = svc.route(request)
            assert live != owner
            answer = svc.submit(request).result(timeout=120)
            snap = svc.live_snapshot()
        assert answer.status is RequestStatus.OK
        direct = Framework(
            DEV, host=XEON_WORKSTATION, plan_cache=False,
            options=request.compile_options(ServiceConfig().pb_max_ops),
        ).compile(request.template)
        assert plan_digest(answer.value.plan) == plan_digest(direct.plan)
        assert snap["live_shards"] == 1 and snap["shard_count"] == 2
        live_rows = [s for s in snap["shards"] if s["alive"]]
        dead_rows = [s for s in snap["shards"] if not s["alive"]]
        assert [s["shard"] for s in live_rows] == [live]
        assert [s["shard"] for s in dead_rows] == [owner]
        assert "SIGKILL" in dead_rows[0]["exit_detail"]

    def test_a_worker_error_fails_only_its_call(self, monkeypatch):
        """An error raised in a worker fails its request with the text
        it has in process, even one that pickles but does not unpickle
        (OutOfDeviceMemoryError); the worker stays in the ring."""
        def out_of_memory(*args):
            raise OutOfDeviceMemoryError(1 << 20, 0, 0)

        monkeypatch.setattr(service_module, "run_request", out_of_memory)
        monkeypatch.setattr(worker_module, "run_request", out_of_memory)
        request = edge_request(mode="simulate")
        with ExecutionService(ServiceConfig(workers=1)) as svc:
            local = svc.submit(request).result(timeout=60)
        with ShardedExecutionService(
            ServiceConfig(workers=1), shards=1,
            mp_context=multiprocessing.get_context("fork"),  # keeps the patch
        ) as svc:
            failed = svc.submit(request).result(timeout=60)
            later = svc.submit(edge_request(size=48)).result(timeout=60)
            alive = svc._pool["proc/0"].alive
        assert local.status is failed.status is RequestStatus.FAILED
        assert failed.error == local.error
        assert failed.error.startswith("internal: OutOfDeviceMemoryError")
        assert later.ok and alive

    def test_seeded_faults_match_in_process(self):
        """A fault-injected execute retries in the router with the
        injector its worker advanced: the same attempts and retries as
        in process, and bit-identical outputs."""
        spec = FaultSpec(transfer_failure_rate=0.3, seed=5)
        inputs = find_edges_inputs(64, 64, 8, 2)

        def run(svc):
            with svc:
                responses = [
                    svc.submit(edge_request(mode="execute", inputs=inputs))
                    .result(timeout=120) for _ in range(4)
                ]
                retries = svc.metrics_snapshot()["counters"]["service.retries"]
            return responses, retries

        config = ServiceConfig(workers=2, fault_spec=spec)
        local, local_retries = run(ExecutionService(config))
        sharded, sharded_retries = run(
            ShardedExecutionService(config, shards=2))
        outcome = [(r.status, r.attempts, r.retries) for r in local]
        assert outcome == [(r.status, r.attempts, r.retries) for r in sharded]
        assert all(r.ok and r.retries > 0 for r in local), outcome
        assert local_retries == sharded_retries > 0
        for a, b in zip(local, sharded):
            assert a.value.outputs.keys() == b.value.outputs.keys()
            for name in a.value.outputs:
                assert np.array_equal(a.value.outputs[name],
                                      b.value.outputs[name])


def big_simulate(label="plug", size=2048):
    """A request that holds a worker long enough to queue work behind."""
    return ServiceRequest(
        template=find_edges_graph(size, size, 16, 4), device=DEV,
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
    """Admission is the in-process rule; the pool keeps nothing about a
    call once it is answered."""

    def test_router_state_does_not_grow_with_requests_served(self):
        """2,000 resolved requests over more templates than the tables
        hold: nothing the router keeps per worker outgrows the interning
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
            worker = svc._pool["proc/0"]
            assert worker.calls == {}
            sizes = [len(m) for m in mappings_under(worker)]
            assert sizes and max(sizes) <= bound, sizes
            assert len(worker.channel._sent) == bound  # and it did fill
            # a long-resolved id is still in the router's event stream
            last = tickets[-1]
            kinds = [e.kind for e in svc.request_timeline(last.id)]
            assert "service.admit" in kinds and "service.done" in kinds

    def test_queue_full_raises_from_submit_and_credits_return(self):
        """``max_queue_depth`` bounds the router's queue, as in process:
        the plug runs on the router's one thread, one miss queues behind
        it, the next is refused, and the slot frees once it is served."""
        with fleet(shards=1, workers=1, max_queue_depth=1) as svc:
            plug = svc.submit(big_simulate(size=4096))
            wait_until(lambda: svc._pool["proc/0"].calls)
            queued = svc.submit(edge_request())
            with pytest.raises(QueueFullError, match="queue depth 1"):
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
            svc._pool["proc/0"].process.kill()
            thread.join(timeout=120)
            assert not thread.is_alive()
            responses = [t.result(timeout=60) for t in tickets]
            assert svc._pool["proc/0"].calls == {}
        assert len(tickets) + len(raised) == 5000
        assert raised, "the burst should have outlasted the shard"
        failed = [r for r in responses if not r.ok]
        assert failed or len(tickets) < 5000
        for r in failed:
            assert r.status is RequestStatus.FAILED
            assert "shard proc/0 died (" in r.error and "SIGKILL" in r.error


@pytest.mark.timeout(180)
class TestFlightRecorderPostmortem:
    """SIGKILL a worker mid-call, then reconstruct its final moments
    *purely from the on-disk journal* — the worker process is dead and
    the supervisor may be too."""

    def killed_fleet(self, flight_dir):
        """One worker process with three threads, flight recorder on;
        three big simulate requests (three plans, so three calls at
        once) and the worker killed as soon as its journal shows all
        three calls under way, so every request is genuinely mid-flight
        when it dies.  ``submit()`` returning says nothing about the
        worker; its journal does — it is written before a call starts."""
        cfg = ServiceConfig(workers=3, flight_dir=flight_dir)
        svc = ShardedExecutionService(cfg, shards=1)
        tickets = [svc.submit(big_simulate(f"r{i}", size=4096 - 8 * i))
                   for i in range(3)]
        jdir = journal_dir(flight_dir, "proc/0")
        wait_until(lambda: sum(
            r.get("kind") == "worker.call"
            for r in read_journal(jdir).records
        ) == 3, seconds=60)
        svc._pool["proc/0"].process.kill()
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
        assert "worker.call" in kinds
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
