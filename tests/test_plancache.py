"""Content-addressed plan cache (repro.core.plancache).

Covers the cache contract end to end: keys are stable across processes
and sensitive to every compile input; warm compiles return byte-identical
plans with hit counters set; the disk tier survives restarts and recovers
from corruption; caching off produces the same plans as caching on.
Every entry holds a frozen graph, so no caller can edit what a hit
shares.
"""

import dataclasses
import json
import os
import subprocess
import sys

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
)
from repro.core.plancache import CACHE_VERSION, SharedPlanCache
from repro.gpusim import GpuDevice, homogeneous_group
from repro.multigpu import compile_multi
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

