"""Incremental recompilation: fragments, fingerprints, stitching.

Edit-proportional compile time: a one-branch edit of a forest template
must recompile exactly one fragment and stitch the rest from the plan
cache, and the stitched plan must execute bit-identically.
"""

import json

import numpy as np
import pytest

from repro.core import (
    CompileOptions,
    Framework,
    compile_incremental,
    extract_fragment,
    fragment_key,
    graph_fragments,
    plan_to_dict,
    validate_plan,
)
from repro.core.plancache import PlanCache, SharedPlanCache
from repro.gpusim import GpuDevice
from repro.templates import (
    cnn_graph,
    edge_forest_graph,
    edge_forest_inputs,
    find_edges_graph,
    SMALL_CNN,
    video_edge_graph,
    video_edge_inputs,
)

KB = 1024
DEV = GpuDevice(name="inc-dev", memory_bytes=256 * KB)
OPTS = CompileOptions(split_headroom=1.0)


def fw_with_cache(cache=None):
    return Framework(
        DEV,
        options=OPTS,
        plan_cache=cache if cache is not None else PlanCache(max_entries=128),
    )


# ---------------------------------------------------------------------------
# Fragment partition
# ---------------------------------------------------------------------------
class TestGraphFragments:
    def test_forest_branches_are_fragments(self):
        g = edge_forest_graph(4, 64, 64, 5, 4)
        frags = graph_fragments(g)
        assert len(frags) == 4
        for j, ops in enumerate(frags):
            assert all(o.startswith(f"T{j}_") for o in ops)

    def test_shared_inputs_do_not_glue_fragments(self):
        # video frames share the kernel inputs; they must still fragment
        g = video_edge_graph(6, 48, 48, 5, 4)
        assert len(graph_fragments(g)) == 6

    def test_connected_template_is_one_fragment(self):
        g = find_edges_graph(48, 40, 5, 4)
        frags = graph_fragments(g)
        assert len(frags) == 1
        assert frags[0] == list(g.ops)

    def test_fragments_partition_all_ops(self):
        g = edge_forest_graph(3, 48, 48, 5, 4)
        frags = graph_fragments(g)
        flat = [o for ops in frags for o in ops]
        assert sorted(flat) == sorted(g.ops)
        assert len(flat) == len(set(flat))

    def test_deterministic_order(self):
        g = video_edge_graph(5, 48, 48, 5, 4)
        assert graph_fragments(g) == graph_fragments(g)


class TestExtractFragment:
    def test_fragment_is_valid_standalone_graph(self):
        g = video_edge_graph(4, 48, 48, 5, 4)
        for ops in graph_fragments(g):
            sub = extract_fragment(g, ops)
            sub.validate()
            assert list(sub.ops) == ops

    def test_shared_inputs_duplicated_per_fragment(self):
        g = video_edge_graph(3, 48, 48, 5, 4)
        subs = [extract_fragment(g, ops) for ops in graph_fragments(g)]
        for sub in subs:
            assert "K1" in sub.data and sub.data["K1"].is_input

    def test_consumers_filtered_to_members(self):
        g = video_edge_graph(3, 48, 48, 5, 4)
        sub = extract_fragment(g, graph_fragments(g)[0])
        for d, cons in sub.consumers.items():
            assert all(c in sub.ops for c in cons)


class TestFragmentKey:
    def test_stable_across_rebuilds(self):
        a = extract_fragment(*_first_fragment(video_edge_graph(3, 48, 48, 5, 4)))
        b = extract_fragment(*_first_fragment(video_edge_graph(3, 48, 48, 5, 4)))
        assert fragment_key(a, DEV, OPTS) == fragment_key(b, DEV, OPTS)

    def test_edit_changes_only_edited_fragment_key(self):
        g1 = edge_forest_graph(4, 64, 64, 5, 4)
        g2 = edge_forest_graph(4, 64, 64, 5, 4, branch_combine={2: "add"})
        k1 = [fragment_key(extract_fragment(g1, ops), DEV, OPTS)
              for ops in graph_fragments(g1)]
        k2 = [fragment_key(extract_fragment(g2, ops), DEV, OPTS)
              for ops in graph_fragments(g2)]
        assert [a == b for a, b in zip(k1, k2)] == [True, True, False, True]

    def test_namespaced_away_from_whole_template_keys(self):
        from repro.core import plan_key

        g = find_edges_graph(48, 40, 5, 4)
        sub = extract_fragment(g, graph_fragments(g)[0], name=g.name)
        assert fragment_key(sub, DEV, OPTS) != plan_key(sub, DEV, OPTS)


def _first_fragment(g):
    return g, graph_fragments(g)[0]


# ---------------------------------------------------------------------------
# compile_incremental
# ---------------------------------------------------------------------------
class TestCompileIncremental:
    def test_cold_then_warm(self):
        fw = fw_with_cache()
        g = video_edge_graph(6, 48, 48, 5, 4)
        cold = fw.compile_incremental(g)
        assert cold.total_fragments == 6 and cold.reused_fragments == 0
        warm = fw.compile_incremental(g)
        assert warm.reused_fragments == 6
        assert warm.reuse_ratio == 1.0
        assert json.dumps(plan_to_dict(cold.compiled.plan)) == json.dumps(
            plan_to_dict(warm.compiled.plan)
        )

    def test_one_branch_edit_replans_one_fragment(self):
        fw = fw_with_cache()
        g = edge_forest_graph(5, 64, 64, 5, 4)
        fw.compile_incremental(g)
        edited = edge_forest_graph(5, 64, 64, 5, 4, branch_combine={1: "add"})
        inc = fw.compile_incremental(edited)
        assert inc.total_fragments == 5
        assert inc.reused_fragments == 4

    def test_stitched_plan_validates(self):
        fw = fw_with_cache()
        g = video_edge_graph(4, 48, 48, 5, 4)
        inc = fw.compile_incremental(g)
        peak = validate_plan(
            inc.compiled.plan, inc.compiled.graph, DEV.usable_memory_floats
        )
        assert peak == inc.compiled.peak_device_floats

    def test_stitched_execution_bitwise_matches_monolithic(self):
        fw = fw_with_cache()
        g = edge_forest_graph(3, 48, 48, 5, 4)
        inputs = edge_forest_inputs(3, 48, 48, 5, 4, seed=5)
        inc = fw.compile_incremental(g)
        mono = fw.compile(g)
        got = fw.execute(inc.compiled, inputs).outputs
        ref = fw.execute(mono, inputs).outputs
        assert set(got) == set(ref)
        for k in ref:
            assert np.array_equal(got[k], ref[k])

    def test_split_fragments_stitch(self):
        """Fragments that need operator splitting still stitch cleanly."""
        dev = GpuDevice(name="inc-tight", memory_bytes=64 * KB)
        fw = Framework(dev, options=OPTS, plan_cache=PlanCache(max_entries=64))
        g = edge_forest_graph(3, 96, 96, 5, 4)
        inc = fw.compile_incremental(g)
        assert inc.total_fragments == 3
        assert inc.compiled.split_report.split_ops
        inputs = edge_forest_inputs(3, 96, 96, 5, 4, seed=9)
        ref = fw.execute(fw.compile(g), inputs).outputs
        got = fw.execute(inc.compiled, inputs).outputs
        for k in ref:
            assert np.array_equal(got[k], ref[k])

    def test_no_cache_recompiles_everything(self):
        fw = Framework(DEV, options=OPTS, plan_cache=False)
        g = video_edge_graph(3, 48, 48, 5, 4)
        inc = fw.compile_incremental(g)
        assert inc.reused_fragments == 0
        inc2 = fw.compile_incremental(g)
        assert inc2.reused_fragments == 0  # nothing cached, still correct

    def test_connected_graph_degenerates_to_single_fragment(self):
        fw = fw_with_cache()
        g = cnn_graph(SMALL_CNN, 48, 48)
        inc = fw.compile_incremental(g)
        assert inc.total_fragments == 1

    def test_fragment_spans_recorded(self):
        fw = fw_with_cache()
        inc = fw.compile_incremental(video_edge_graph(3, 48, 48, 5, 4))
        names = [sp.name for sp in inc.compiled.spans]
        assert "compile_incremental" in names
        assert "stitch" in names
        assert names.count("fragment_compile") == 3

    def test_never_stores_under_whole_template_key(self):
        from repro.core import plan_key

        cache = PlanCache(max_entries=128)
        fw = fw_with_cache(cache)
        g = video_edge_graph(3, 48, 48, 5, 4)
        fw.compile_incremental(g)
        assert cache.get(plan_key(g, DEV, OPTS)) is None

    def test_failed_fragment_compile_abandons_leadership(
        self, tmp_path, monkeypatch
    ):
        cache = SharedPlanCache(str(tmp_path), lock_timeout=5.0)
        fw = Framework(DEV, options=OPTS, plan_cache=cache)
        g = video_edge_graph(2, 48, 48, 5, 4)

        def failing_compile(*args, **kwargs):
            raise RuntimeError("fragment compile failed")

        monkeypatch.setattr(Framework, "_compile_miss", failing_compile)
        with pytest.raises(RuntimeError, match="fragment compile failed"):
            compile_incremental(fw, g)
        assert not cache._held  # leadership released, no stuck followers
