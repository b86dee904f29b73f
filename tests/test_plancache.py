"""Content-addressed plan cache (repro.core.plancache).

Covers the cache contract end to end: keys are stable across processes
and sensitive to every compile input; warm compiles return byte-identical
plans with hit counters set; the disk tier survives restarts and recovers
from corruption; caching off produces the same plans as caching on.
Every entry holds a frozen graph, so no caller can edit what a hit
shares.
"""

import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.core import (
    CachedPlan,
    CompileOptions,
    Framework,
    GraphError,
    PlanCache,
    graph_to_dict,
    plan_key,
    plan_to_dict,
    save_plan,
)
from repro.core.plancache import CACHE_VERSION, SharedPlanCache, graph_fingerprint
from repro.gpusim import XEON_WORKSTATION, GpuDevice, homogeneous_group
from repro.multigpu import compile_multi
from repro.service import ServiceConfig, ServiceRequest
from repro.service.shard import ShardedExecutionService
from repro.templates import edge_forest_graph, find_edges_graph

KB = 1024
DEVICE = GpuDevice(name="pc-dev", memory_bytes=256 * KB)
OPTIONS = CompileOptions(split_headroom=1.0)


def small_graph():
    return find_edges_graph(200, 200, 5, 4)


def split_graph():
    # Out-of-core on the 256 KB device: exercises splitting + eviction.
    return find_edges_graph(512, 512, 5, 4)


def plan_bytes(compiled) -> str:
    return json.dumps(plan_to_dict(compiled.plan), sort_keys=True)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------
class TestPlanKey:
    def test_deterministic_within_process(self):
        k1 = plan_key(small_graph(), DEVICE, OPTIONS)
        k2 = plan_key(small_graph(), DEVICE, OPTIONS)
        assert k1 == k2
        assert len(k1) == 64  # sha256 hex

    def test_stable_across_process_restarts(self):
        # A fresh interpreter (fresh PYTHONHASHSEED) must derive the
        # same key: content addressing cannot depend on hash order.
        code = (
            "from repro.core import plan_key, CompileOptions\n"
            "from repro.gpusim import GpuDevice\n"
            "from repro.templates import find_edges_graph\n"
            "print(plan_key(find_edges_graph(200, 200, 5, 4),\n"
            "      GpuDevice(name='pc-dev', memory_bytes=262144),\n"
            "      CompileOptions(split_headroom=1.0)))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src_dir)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == plan_key(small_graph(), DEVICE, OPTIONS)

    def test_changes_with_graph(self):
        assert plan_key(small_graph(), DEVICE, OPTIONS) != plan_key(
            find_edges_graph(201, 200, 5, 4), DEVICE, OPTIONS
        )

    def test_changes_with_options(self):
        for other in (
            CompileOptions(split_headroom=2.0),
            CompileOptions(split_headroom=1.0, scheduler="bfs"),
            CompileOptions(split_headroom=1.0, eviction_policy="lru"),
            CompileOptions(split_headroom=1.0, eager_free=False),
        ):
            assert plan_key(small_graph(), DEVICE, OPTIONS) != plan_key(
                small_graph(), DEVICE, other
            )

    def test_changes_with_device(self):
        other = GpuDevice(name="pc-dev", memory_bytes=512 * KB)
        assert plan_key(small_graph(), DEVICE, OPTIONS) != plan_key(
            small_graph(), other, OPTIONS
        )

    def test_changes_with_kind_and_extra(self):
        g = small_graph()
        base = plan_key(g, DEVICE, OPTIONS)
        assert base != plan_key(g, DEVICE, OPTIONS, kind="multi")
        assert plan_key(
            g, DEVICE, OPTIONS, extra={"transfer_mode": "peer"}
        ) != plan_key(g, DEVICE, OPTIONS, extra={"transfer_mode": "staged"})


# ---------------------------------------------------------------------------
# Framework integration
# ---------------------------------------------------------------------------
class TestFrameworkCaching:
    def test_warm_compile_is_identical_and_counted(self):
        cache = PlanCache()
        fw = Framework(DEVICE, options=OPTIONS, plan_cache=cache)
        g = split_graph()
        cold = fw.compile(g)
        warm = fw.compile(g)
        assert plan_bytes(cold) == plan_bytes(warm)
        assert warm.op_order == cold.op_order
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cold.metrics["counters"]["plan_cache.miss"] == 1
        assert cold.metrics["counters"]["plan_cache.hit"] == 0
        assert warm.metrics["counters"]["plan_cache.hit"] == 1
        assert warm.metrics["counters"]["plan_cache.miss"] == 0
        # Plan gauges survive the hit path (snapshot reuse).
        assert (
            warm.metrics["gauges"]["plan.transfer_floats"]
            == cold.metrics["gauges"]["plan.transfer_floats"]
        )

    def test_hit_metrics_are_isolated_from_the_entry(self):
        """A hit hands out its own metrics snapshot: whatever a caller
        does to it, the cache entry and later hits are unaffected."""
        cache = PlanCache()
        fw = Framework(DEVICE, options=OPTIONS, plan_cache=cache)
        g = split_graph()
        cold = fw.compile(g)
        entry = cache.get(plan_key(g, DEVICE, OPTIONS))
        stored = json.dumps(entry.metrics, sort_keys=True)
        first = fw.compile(g)
        assert first.metrics is not entry.metrics
        first.metrics["counters"]["compile.candidates"] = -1
        first.metrics["counters"]["injected"] = 1
        first.metrics["gauges"]["plan.transfer_floats"]["value"] = -1
        first.metrics["gauges"]["injected"] = {"value": 0, "peak": 0}
        del first.metrics["histograms"]
        assert json.dumps(entry.metrics, sort_keys=True) == stored
        second = fw.compile(g)
        assert (
            second.metrics["gauges"]["plan.transfer_floats"]
            == cold.metrics["gauges"]["plan.transfer_floats"]
        )
        assert second.metrics["counters"]["compile.candidates"] == 1
        assert "injected" not in second.metrics["counters"]
        assert "injected" not in second.metrics["gauges"]
        assert second.metrics["histograms"] == {}
        # The hit overlay itself never leaks back into the entry either.
        assert entry.metrics["counters"]["plan_cache.hit"] == 0

    def test_cache_off_produces_identical_plans(self):
        g = split_graph()
        on = Framework(DEVICE, options=OPTIONS, plan_cache=PlanCache())
        off = Framework(DEVICE, options=OPTIONS, plan_cache=False)
        assert plan_bytes(on.compile(g)) == plan_bytes(off.compile(g))
        assert off.plan_cache is None
        assert "plan_cache.hit" not in off.compile(g).metrics["counters"]

    def test_option_change_misses(self):
        cache = PlanCache()
        g = split_graph()
        Framework(DEVICE, options=OPTIONS, plan_cache=cache).compile(g)
        Framework(
            DEVICE,
            options=CompileOptions(split_headroom=1.0, eviction_policy="lru"),
            plan_cache=cache,
        ).compile(g)
        assert cache.stats()["misses"] == 2
        assert cache.stats()["hits"] == 0

    def test_device_change_misses(self):
        cache = PlanCache()
        g = split_graph()
        Framework(DEVICE, options=OPTIONS, plan_cache=cache).compile(g)
        Framework(
            GpuDevice(name="pc-dev", memory_bytes=512 * KB),
            options=OPTIONS,
            plan_cache=cache,
        ).compile(g)
        assert cache.stats()["misses"] == 2
        assert cache.stats()["hits"] == 0

    def test_multi_gpu_hit_restores_partition(self):
        cache = PlanCache()
        g = find_edges_graph(256, 256, 5, 4)
        grp = homogeneous_group(DEVICE, 2)
        cold = compile_multi(g, grp, options=OPTIONS, plan_cache=cache)
        warm = compile_multi(g, grp, options=OPTIONS, plan_cache=cache)
        assert plan_bytes(cold) == plan_bytes(warm)
        assert warm.partition.assignment == cold.partition.assignment
        assert warm.partition.device_costs == cold.partition.device_costs
        assert cache.stats()["hits"] == 1
        # A different transfer mode is a different compilation.
        compile_multi(
            g, grp, options=OPTIONS, plan_cache=cache, transfer_mode="staged"
        )
        assert cache.stats()["misses"] == 2


# ---------------------------------------------------------------------------
# LRU + disk tier
# ---------------------------------------------------------------------------
class TestCacheTiers:
    def test_lru_evicts_oldest(self):
        cache = PlanCache(max_entries=2)
        fw = Framework(DEVICE, options=OPTIONS, plan_cache=cache)
        graphs = [find_edges_graph(n, n, 5, 4) for n in (96, 128, 160)]
        for g in graphs:
            fw.compile(g)
        assert len(cache) == 2
        fw.compile(graphs[0])  # evicted -> miss again
        assert cache.stats()["misses"] == 4

    def test_disk_tier_survives_new_cache_instance(self, tmp_path):
        g = split_graph()
        d = str(tmp_path / "plans")
        c1 = PlanCache(disk_dir=d)
        cold = Framework(DEVICE, options=OPTIONS, plan_cache=c1).compile(g)
        assert c1.stats()["disk_writes"] == 1
        c2 = PlanCache(disk_dir=d)  # fresh process simulation
        warm = Framework(DEVICE, options=OPTIONS, plan_cache=c2).compile(g)
        assert c2.stats()["disk_hits"] == 1
        assert plan_bytes(cold) == plan_bytes(warm)
        assert warm.split_report.split_ops == cold.split_report.split_ops

    def test_corrupt_disk_entry_recovers(self, tmp_path):
        g = split_graph()
        d = str(tmp_path / "plans")
        c1 = PlanCache(disk_dir=d)
        cold = Framework(DEVICE, options=OPTIONS, plan_cache=c1).compile(g)
        (path,) = [
            os.path.join(d, f) for f in os.listdir(d) if f.endswith(".json")
        ]
        with open(path, "w") as fh:
            fh.write("{ not json")
        c2 = PlanCache(disk_dir=d)
        warm = Framework(DEVICE, options=OPTIONS, plan_cache=c2).compile(g)
        assert plan_bytes(cold) == plan_bytes(warm)
        assert c2.stats()["corrupt_entries"] == 1
        assert c2.stats()["misses"] == 1
        # The broken file is gone and the recompile re-wrote a good one.
        with open(path) as fh:
            CachedPlan.from_dict(json.load(fh))

    def test_stale_version_treated_as_corrupt(self, tmp_path):
        """An entry written under another ``CACHE_VERSION`` (the previous
        key layout included) is a miss and is rewritten, never returned."""
        g = small_graph()
        for stale in (CACHE_VERSION - 1, 999):
            d = str(tmp_path / f"plans-{stale}")
            c1 = PlanCache(disk_dir=d)
            Framework(DEVICE, options=OPTIONS, plan_cache=c1).compile(g)
            (path,) = [
                os.path.join(d, f)
                for f in os.listdir(d)
                if f.endswith(".json")
            ]
            with open(path) as fh:
                raw = json.load(fh)
            raw["version"] = stale
            with open(path, "w") as fh:
                json.dump(raw, fh)
            c2 = PlanCache(disk_dir=d)
            Framework(DEVICE, options=OPTIONS, plan_cache=c2).compile(g)
            stats = c2.stats()
            assert (stats["corrupt_entries"], stats["disk_hits"]) == (1, 0)
            assert (stats["misses"], stats["disk_writes"]) == (1, 1)
            with open(path) as fh:
                assert json.load(fh)["version"] == CACHE_VERSION

    def test_round_trip_serialization(self):
        cache = PlanCache()
        fw = Framework(DEVICE, options=OPTIONS, plan_cache=cache)
        fw.compile(split_graph())
        (entry,) = cache._mem.values()
        restored = CachedPlan.from_dict(
            json.loads(json.dumps(entry.to_dict()))
        )
        assert plan_to_dict(restored.plan) == plan_to_dict(entry.plan)
        assert restored.op_order == entry.op_order
        assert restored.split_report == entry.split_report

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)


# ---------------------------------------------------------------------------
# Entries hold frozen graphs
# ---------------------------------------------------------------------------
def assert_read_only(graph):
    """Every mutator raises on ``graph`` and leaves it as it was; the same
    edit of a ``copy()`` goes through."""
    src = next(d for d, ds in graph.data.items() if not ds.virtual)
    new = graph.fresh_name("extra")
    edits = {
        "add_data": lambda g: g.add_data(new, (4, 4), is_input=True),
        "add_operator": lambda g: g.add_operator(
            new, "tanh", [src], [g.add_data(new, g.data[src].shape).name]
        ),
        "mark_output": lambda g: g.mark_output(src, not g.data[src].is_output),
    }
    assert graph.frozen
    before = graph_to_dict(graph)
    for edit in edits.values():
        edit(graph.copy())
        with pytest.raises(GraphError, match="frozen"):
            edit(graph)
    assert graph_to_dict(graph) == before


class TestEntriesAreFrozen:
    def test_a_compile_hit_cannot_be_edited(self):
        cache = PlanCache()
        fw = Framework(DEVICE, options=OPTIONS, plan_cache=cache)
        g = split_graph()
        cold = fw.compile(g)
        warm = fw.compile(g)
        assert cache.stats()["hits"] == 1 and warm.graph is cold.graph
        assert_read_only(warm.graph)
        assert plan_bytes(fw.compile(g)) == plan_bytes(cold)

    def test_a_compile_multi_entry_cannot_be_edited(self):
        cache = PlanCache()
        compiled = compile_multi(
            find_edges_graph(256, 256, 5, 4), homogeneous_group(DEVICE, 2),
            options=OPTIONS, plan_cache=cache,
        )
        (entry,) = cache._mem.values()
        assert entry.graph is compiled.graph
        assert_read_only(entry.graph)

    def test_an_incremental_fragment_entry_cannot_be_edited(self):
        cache = PlanCache()
        fw = Framework(DEVICE, options=OPTIONS, plan_cache=cache)
        result = fw.compile_incremental(edge_forest_graph(3, 64, 64, 5, 4))
        assert len(cache) == result.total_fragments == 3
        for entry in cache._mem.values():
            assert_read_only(entry.graph)
        assert_read_only(result.compiled.graph)  # the stitch

    def test_a_disk_hit_cannot_be_edited(self, tmp_path):
        g = small_graph()
        d = str(tmp_path / "plans")
        Framework(DEVICE, options=OPTIONS, plan_cache=PlanCache(disk_dir=d)).compile(g)
        cache = PlanCache(disk_dir=d)
        warm = Framework(DEVICE, options=OPTIONS, plan_cache=cache).compile(g)
        assert cache.stats()["disk_hits"] == 1
        assert_read_only(warm.graph)

    @pytest.mark.parametrize("shared", [False, True], ids=["local", "shared"])
    def test_put_refuses_an_unfrozen_graph(self, tmp_path, shared):
        cache = SharedPlanCache(str(tmp_path)) if shared else PlanCache()
        Framework(DEVICE, options=OPTIONS, plan_cache=cache).compile(small_graph())
        (key,) = cache._mem
        entry = cache._mem[key]
        thawed = dataclasses.replace(entry, graph=entry.graph.copy())
        with pytest.raises(GraphError, match="not frozen"):
            cache.put("other", thawed)
        assert list(cache._mem) == [key] and cache._mem[key] is entry



# ---------------------------------------------------------------------------
# The op order is one immutable value; plan keys are memoised on the graph
# ---------------------------------------------------------------------------
def assert_op_order_tuple(*holders):
    for holder in holders:
        assert type(holder.op_order) is tuple, type(holder).__name__


class TestOpOrderIsShared:
    def test_a_memory_hit_hands_out_the_entry_tuple(self):
        cache = PlanCache()
        fw = Framework(DEVICE, options=OPTIONS, plan_cache=cache)
        g = split_graph()
        cold = fw.compile(g)
        warm = fw.compile(g)
        (entry,) = cache._mem.values()
        assert_op_order_tuple(cold, warm, entry)
        assert warm.op_order is entry.op_order is cold.op_order

    def test_a_hit_records_what_a_tracer_would(self):
        fw = Framework(DEVICE, options=OPTIONS, plan_cache=PlanCache())
        g = split_graph()
        fw.compile(g)
        warm = fw.compile(g)
        root, event = warm.spans
        assert (root.name, root.parent) == ("compile", None)
        assert list(root.attrs.items()) == [
            ("template", g.name), ("device", DEVICE.name),
            ("plan_cache", "hit"), ("launches", len(warm.op_order)),
        ]
        assert (event.name, event.parent, event.duration) == (
            "plan_cache", "compile", 0.0
        )
        assert event.attrs == {"hit": True, "key": plan_key(g, DEVICE, OPTIONS)[:16]}
        assert root.start <= event.start <= root.end
        wall = warm.metrics["gauges"]["compile.wall_seconds"]
        assert wall == {"value": root.end, "peak": root.end}

    def test_multi_device_miss_and_hit(self):
        cache = PlanCache()
        g = find_edges_graph(256, 256, 5, 4)
        grp = homogeneous_group(DEVICE, 2)
        cold = compile_multi(g, grp, options=OPTIONS, plan_cache=cache)
        warm = compile_multi(g, grp, options=OPTIONS, plan_cache=cache)
        (entry,) = cache._mem.values()
        assert_op_order_tuple(cold, warm, entry)
        assert warm.op_order is entry.op_order is cold.op_order
        assert [s.name for s in warm.spans] == ["compile_multi", "plan_cache"]

    @pytest.mark.parametrize("shared", [False, True], ids=["disk", "shared"])
    def test_a_disk_round_trip_builds_a_tuple(self, tmp_path, shared):
        g = small_graph()
        d = str(tmp_path / "plans")
        make = (lambda: SharedPlanCache(d)) if shared else (
            lambda: PlanCache(disk_dir=d)
        )
        cold = Framework(DEVICE, options=OPTIONS, plan_cache=make()).compile(g)
        cache = make()
        warm = Framework(DEVICE, options=OPTIONS, plan_cache=cache).compile(g)
        assert cache.stats()["disk_hits"] == 1
        (entry,) = cache._mem.values()
        assert_op_order_tuple(cold, warm, entry)
        assert warm.op_order is entry.op_order and warm.op_order == cold.op_order

    def test_from_dict_builds_a_tuple_and_to_dict_a_list(self):
        cache = PlanCache()
        Framework(DEVICE, options=OPTIONS, plan_cache=cache).compile(small_graph())
        (entry,) = cache._mem.values()
        raw = entry.to_dict()
        assert type(raw["op_order"]) is list
        restored = CachedPlan.from_dict(json.loads(json.dumps(raw)))
        assert_op_order_tuple(restored)
        assert restored.op_order == entry.op_order

    def test_incremental_fragments_and_stitch(self):
        cache = PlanCache()
        fw = Framework(DEVICE, options=OPTIONS, plan_cache=cache)
        forest = edge_forest_graph(3, 64, 64, 5, 4)
        cold = fw.compile_incremental(forest)
        warm = fw.compile_incremental(forest)
        assert warm.reused_fragments == 3
        assert_op_order_tuple(cold.compiled, warm.compiled, *cache._mem.values())
        assert warm.compiled.op_order == cold.compiled.op_order

    def test_baseline_and_pb_compiles(self):
        fw = Framework(DEVICE, options=OPTIONS, plan_cache=PlanCache())
        assert_op_order_tuple(fw.compile_baseline(find_edges_graph(64, 64, 5, 4)))
        tiny = find_edges_graph(8, 8, 3, 1)
        pb = fw.compile(tiny, options=CompileOptions(scheduler="pb"))
        assert_op_order_tuple(pb)

    def test_saved_plan_is_byte_identical(self, tmp_path):
        """``save_plan`` of a cold and a warm compile, pinned to the
        digest of the same file written while the op order was a list."""
        fw = Framework(DEVICE, options=OPTIONS, plan_cache=PlanCache())
        for _ in range(2):
            path = tmp_path / "plan.json"
            save_plan(fw.compile(split_graph()), str(path))
            assert hashlib.sha256(path.read_bytes()).hexdigest() == (
                "a47ad800e12c0eefe15a09b367ccb5de715c36bd60aa6266eaf27fa4a166bf2d"
            )


#: the bench's serve classes: (label, side) of find_edges_graph(side, side, 8, 2)
SERVE_CLASSES = (("hot", 40), ("warm", 48), ("cool", 56), ("rare", 64))
SERVE_DEVICE = GpuDevice(name="bench-serve", memory_bytes=8 * 1024 * KB)


class TestKeyMemo:
    """Digests recorded before ``plan_key`` memoised its result: the memo
    must return exactly what the full composition returns."""

    def test_pinned_plan_keys(self):
        g = small_graph()
        assert plan_key(g, DEVICE, CompileOptions()) == (
            "11ce397e2235259767b7bd7049599a88c5c8d9c7226f9ddfe33fb8eb71985611"
        )
        nondefault = CompileOptions(
            split_headroom=1.0, eviction_policy="lru", scheduler="bfs",
            eager_free=False,
        )
        for _ in range(2):  # computed, then memoised
            assert plan_key(g, DEVICE, nondefault) == (
                "f71e01e0d16b1c27389d59b22dc6dad20effb710b7a8648008a785bce5c966e9"
            )

    def test_pinned_route_keys(self):
        """A fleet routes by the plan key admission computes: the bench's
        serve classes, computed then memoised."""
        router = SimpleNamespace(config=ServiceConfig())
        expected = {
            "hot": "5bb1a2e35411f59d1ef9a7c73138cfca0684b4b7e62889a6004f71590ae501d8",
            "warm": "e078e4f00c3c11b672bdf3677bd5f07983dac073e00ac88de7760896ebc085a8",
            "cool": "e44e071be9ee9de1312e97b6b24484751c4ff288ce1a6da4e76ed21d5b00cb43",
            "rare": "99c2b57059d17d9680fbbb25eb0985207fd8083a42d84f8ab233274f5d95f53f",
        }
        for label, side in SERVE_CLASSES:
            request = ServiceRequest(
                template=find_edges_graph(side, side, 8, 2),
                device=SERVE_DEVICE, host=XEON_WORKSTATION, mode="compile",
                label=label,
            )
            for _ in range(2):
                key = ShardedExecutionService.route_key(router, request)
                assert key == expected[label], label
            assert key == plan_key(
                request.template, SERVE_DEVICE, CompileOptions()
            )

    def test_editing_an_unfrozen_template_changes_its_key_and_misses(self):
        cache = PlanCache()
        fw = Framework(DEVICE, options=OPTIONS, plan_cache=cache)
        g = small_graph().copy()
        fw.compile(g)
        before = plan_key(g, DEVICE, OPTIONS)
        assert g._plan_keys
        inner = next(d for d, ds in g.data.items() if not ds.is_input
                     and not ds.is_output)
        g.mark_output(inner)
        assert g._plan_keys is None
        assert plan_key(g, DEVICE, OPTIONS) != before
        fw.compile(g)
        assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 0

    def test_equal_valued_distinct_objects_hit(self):
        cache = PlanCache()
        g = small_graph()
        Framework(DEVICE, options=OPTIONS, plan_cache=cache).compile(g)
        twin_device = dataclasses.replace(DEVICE)
        twin_options = dataclasses.replace(OPTIONS)
        assert twin_device is not DEVICE and twin_options is not OPTIONS
        Framework(twin_device, options=twin_options, plan_cache=cache).compile(g)
        assert cache.stats()["hits"] == 1 and len(g._plan_keys) == 1

    def test_the_memo_is_not_copied_or_pickled(self):
        g = small_graph()
        plan_key(g, DEVICE, OPTIONS)
        assert g._plan_keys
        assert g.copy()._plan_keys is None
        clone = pickle.loads(pickle.dumps(g))
        assert clone._plan_keys is None
        assert clone._fingerprint == g._fingerprint
        bare = small_graph()
        assert graph_fingerprint(bare) == g._fingerprint and not bare._plan_keys
        assert pickle.dumps(g) == pickle.dumps(bare)  # fleet frames unchanged

    def test_extra_and_unhashable_parts_are_not_memoised(self):
        g = small_graph()
        plan_key(g, DEVICE, OPTIONS, extra={"mode": "compile"})
        assert not g._plan_keys

        @dataclasses.dataclass
        class Mutable:
            memory_bytes: int

        dev = Mutable(256 * KB)
        first = plan_key(g, dev, OPTIONS)
        dev.memory_bytes *= 2
        assert plan_key(g, dev, OPTIONS) != first
        assert not g._plan_keys
