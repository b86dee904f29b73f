"""Tests for the end-to-end Framework driver (Figure 4)."""

import json

import numpy as np
import pytest

from repro.core import (
    CompileOptions,
    Framework,
    PlanCache,
    PlanError,
    run_template,
)
from repro.core.serialize import graph_to_dict, plan_to_dict
from repro.gpusim import (
    GEFORCE_8800_GTX,
    GpuDevice,
    TESLA_C870,
    XEON_WORKSTATION,
    homogeneous_group,
)
from repro.multigpu import compile_multi
from repro.runtime import reference_execute
from repro.templates import (
    LARGE_CNN,
    SMALL_CNN,
    cnn_graph,
    dog_pyramid_graph,
    find_edges_graph,
    find_edges_inputs,
)

SMALL_DEV = GpuDevice(name="small", memory_bytes=20 * 1024)  # 5k floats
BIG_DEV = GpuDevice(name="big", memory_bytes=8 << 20)


@pytest.fixture(scope="module")
def edge():
    g = find_edges_graph(48, 40, 5, 4)
    inputs = find_edges_inputs(48, 40, 5, 4, seed=21)
    ref = reference_execute(g, inputs)["Edg"]
    return g, inputs, ref


class TestCompile:
    def test_compile_validates_plan(self, edge):
        g, _, _ = edge
        compiled = Framework(SMALL_DEV).compile(g)
        assert compiled.peak_device_floats <= SMALL_DEV.usable_memory_floats
        assert compiled.split_report.any_split

    def test_template_not_mutated(self, edge):
        g, _, _ = edge
        n_ops = len(g.ops)
        Framework(SMALL_DEV).compile(g)
        assert len(g.ops) == n_ops

    def test_no_split_on_big_device(self, edge):
        g, _, _ = edge
        compiled = Framework(BIG_DEV).compile(g)
        assert not compiled.split_report.any_split
        assert compiled.transfer_floats() == g.io_size()

    def test_options_propagate(self, edge):
        g, _, _ = edge
        opts = CompileOptions(scheduler="bfs", eviction_policy="lru", eager_free=False)
        compiled = Framework(BIG_DEV, options=opts).compile(g)
        assert compiled.plan.label == "lru+lazy"

    def test_split_disabled_raises_when_needed(self, edge):
        g, _, _ = edge
        fw = Framework(SMALL_DEV, options=CompileOptions(split=False))
        with pytest.raises(PlanError):
            fw.compile(g)

    def test_summary_fields(self, edge):
        g, _, _ = edge
        s = Framework(SMALL_DEV).compile(g).summary()
        for key in ("transfer_floats", "device", "operators", "peak_device_floats"):
            assert key in s


class TestExecution:
    def test_execute_matches_reference(self, edge):
        g, inputs, ref = edge
        fw = Framework(SMALL_DEV)
        res = fw.execute(fw.compile(g), inputs)
        np.testing.assert_allclose(res.outputs["Edg"], ref, rtol=1e-4, atol=1e-5)

    def test_run_template_convenience(self, edge):
        g, inputs, ref = edge
        res = run_template(g, inputs, SMALL_DEV)
        np.testing.assert_allclose(res.outputs["Edg"], ref, rtol=1e-4, atol=1e-5)

    def test_simulate_agrees_with_execute(self, edge):
        g, inputs, _ = edge
        fw = Framework(SMALL_DEV, host=XEON_WORKSTATION)
        compiled = fw.compile(g)
        sim = fw.simulate(compiled)
        res = fw.execute(compiled, inputs)
        assert sim.transfer_floats == res.transfer_floats
        assert sim.total_time == pytest.approx(
            res.transfer_time + res.compute_time, rel=1e-6
        )


class TestRetargeting:
    """Section 2: automatic re-targeting across devices and data sizes."""

    def test_same_template_both_paper_devices(self, edge):
        g, inputs, ref = edge
        for dev in (TESLA_C870, GEFORCE_8800_GTX):
            fw = Framework(dev)
            res = fw.execute(fw.compile(g), inputs)
            np.testing.assert_allclose(
                res.outputs["Edg"], ref, rtol=1e-4, atol=1e-5
            )

    def test_smaller_memory_never_transfers_less(self, edge):
        g, _, _ = edge
        caps = [128 * 1024, 256 * 1024, 8 << 20]
        vols = []
        for cap in caps:
            fw = Framework(GpuDevice(name=f"m{cap}", memory_bytes=cap))
            vols.append(fw.compile(g).transfer_floats())
        assert vols[0] >= vols[1] >= vols[2]

    def test_memory_variant_retarget(self, edge):
        g, inputs, ref = edge
        half = SMALL_DEV.with_memory(SMALL_DEV.memory_bytes // 2)
        fw = Framework(half)
        res = fw.execute(fw.compile(g), inputs)
        np.testing.assert_allclose(res.outputs["Edg"], ref, rtol=1e-4, atol=1e-5)


class TestBaseline:
    def test_baseline_feasible_on_big_device(self, edge):
        g, inputs, ref = edge
        fw = Framework(BIG_DEV)
        compiled = fw.compile_baseline(g)
        res = fw.execute(compiled, inputs)
        np.testing.assert_allclose(res.outputs["Edg"], ref, rtol=1e-4, atol=1e-5)

    def test_baseline_na_on_small_device(self, edge):
        g, _, _ = edge
        with pytest.raises(PlanError):
            Framework(SMALL_DEV).compile_baseline(g)

    def test_optimized_beats_baseline(self, edge):
        g, _, _ = edge
        fw = Framework(BIG_DEV, host=XEON_WORKSTATION)
        opt = fw.simulate(fw.compile(g))
        base = fw.simulate(fw.compile_baseline(g))
        assert opt.transfer_floats < base.transfer_floats
        assert opt.total_time < base.total_time


class TestAutoHeadroom:
    def test_auto_matches_best_candidate(self):
        """compile() with auto headroom returns the cheapest candidate."""
        g = find_edges_graph(400, 400, 16, 4)
        dev = GpuDevice(name="hr", memory_bytes=256 * 1024)
        candidates = []
        for h in (1.0, 2.0, 4.0):
            fw = Framework(dev, options=CompileOptions(split_headroom=h))
            candidates.append(fw.compile(g).transfer_floats())
        auto = Framework(
            dev, options=CompileOptions(split_headroom="auto")
        ).compile(g)
        assert auto.transfer_floats() == min(candidates)

    def test_in_core_skips_candidates(self):
        """When the template fits, only one compilation happens (fast path
        indistinguishable from headroom 1)."""
        g = find_edges_graph(48, 40, 5, 4)
        auto = Framework(BIG_DEV).compile(g)
        one = Framework(
            BIG_DEV, options=CompileOptions(split_headroom=1.0)
        ).compile(g)
        assert auto.transfer_floats() == one.transfer_floats()
        assert auto.plan.steps == one.plan.steps

    def test_fixed_headroom_respected(self):
        g = find_edges_graph(400, 400, 16, 4)
        dev = GpuDevice(name="hr2", memory_bytes=256 * 1024)
        fw = Framework(dev, options=CompileOptions(split_headroom=4.0))
        compiled = fw.compile(g)
        # All operators fit in a quarter of usable capacity.
        cap = dev.usable_memory_floats
        assert all(
            compiled.graph.op_footprint(o) <= cap / 4
            for o in compiled.graph.ops
        )


def _plan_bytes(compiled) -> str:
    return json.dumps(plan_to_dict(compiled.plan), sort_keys=True)


def _spans(compiled, name):
    return [s for s in compiled.spans if s.name == name]


class TestCandidatePlanning:
    """Auto-headroom candidates are planned on the read-only template:
    those with nothing to split share one working copy and one pipeline
    run, the rest are compiled (and fingerprint-deduped) as before."""

    KB256 = GpuDevice(name="cand", memory_bytes=256 * 1024)

    def _fixed(self, dev, g, headroom):
        return Framework(
            dev,
            options=CompileOptions(split_headroom=headroom),
            plan_cache=False,
        ).compile(g)

    def _best_fixed(self, dev, g):
        """First-wins argmin over the fixed-headroom compiles — the
        selection rule of ``compile`` applied to independent compiles."""
        best = None
        for h in (1.0, 2.0, 4.0):
            c = self._fixed(dev, g, h)
            rank = (c.transfer_floats(), len(c.plan.launches()))
            if best is None or rank < best[0]:
                best = (rank, h, c)
        return best[1], best[2]

    def test_out_of_core_without_splits_runs_one_pipeline(self):
        g = cnn_graph(SMALL_CNN, 64, 48)
        cap = self.KB256.usable_memory_floats
        assert g.max_footprint() <= cap // 4 < cap < g.total_data_size()
        auto = Framework(self.KB256, plan_cache=False).compile(g)
        assert len(_spans(auto, "splitting")) == 1
        assert len(_spans(auto, "transfer_scheduling")) == 1
        dedupes = _spans(auto, "candidate_dedupe")
        assert [s.attrs["headroom"] for s in dedupes] == [2.0, 4.0]
        assert auto.metrics["counters"]["compile.candidates"] == 3
        root = _spans(auto, "compile")[0]
        assert root.attrs["candidates"] == 3
        assert root.attrs["selected_headroom"] == 1.0
        assert not auto.split_report.any_split
        assert _plan_bytes(auto) == _plan_bytes(self._fixed(self.KB256, g, 1.0))

    def test_distinct_splits_run_three_pipelines(self):
        g = find_edges_graph(400, 400, 16, 4)
        auto = Framework(self.KB256, plan_cache=False).compile(g)
        splitting = _spans(auto, "splitting")
        assert [s.attrs["headroom"] for s in splitting] == [1.0, 2.0, 4.0]
        assert len({s.attrs["ops_after"] for s in splitting}) == 3
        assert len(_spans(auto, "transfer_scheduling")) == 3
        assert not _spans(auto, "candidate_dedupe")
        headroom, fixed = self._best_fixed(self.KB256, g)
        root = _spans(auto, "compile")[0]
        assert root.attrs["selected_headroom"] == headroom
        assert _plan_bytes(auto) == _plan_bytes(fixed)

    def test_unsplit_candidate_competes_with_split_ones(self):
        """Minimal headroom needs no split, the finer candidates do."""
        g = find_edges_graph(400, 400, 16, 4)
        dev = GpuDevice(name="cand-mixed", memory_bytes=3800 * 1024)
        cap = dev.usable_memory_floats
        assert cap // 2 < g.max_footprint() <= cap < g.total_data_size()
        auto = Framework(dev, plan_cache=False).compile(g)
        splitting = _spans(auto, "splitting")
        assert [s.attrs["split_ops"] > 0 for s in splitting] == [
            False, True, True,
        ]
        assert len(_spans(auto, "transfer_scheduling")) == 3
        headroom, fixed = self._best_fixed(dev, g)
        root = _spans(auto, "compile")[0]
        assert root.attrs["selected_headroom"] == headroom
        assert _plan_bytes(auto) == _plan_bytes(fixed)


def _presplit_edge():
    """A template that already carries Slot/OutSpec params: the split
    graph of one compile, fed back in as the template of the next."""
    fw = Framework(
        GpuDevice(name="presplit", memory_bytes=1 << 30),
        options=CompileOptions(split_headroom=1.0),
        plan_cache=False,
    )
    return fw.compile(find_edges_graph(10000, 10000, 16, 4)).graph


FAMILIES = {
    "edge": lambda: find_edges_graph(12000, 12000, 16, 4),
    "edge-presplit": _presplit_edge,
    "pyramid": lambda: dog_pyramid_graph(16384, 16384),
    "small-cnn": lambda: cnn_graph(SMALL_CNN, 6400, 4800),
    "large-cnn": lambda: cnn_graph(LARGE_CNN, 6400, 480),
}


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    g = FAMILIES[request.param]()
    return request.param, g, json.dumps(graph_to_dict(g), sort_keys=True)


@pytest.mark.parametrize(
    "device", [TESLA_C870, GEFORCE_8800_GTX], ids=lambda d: d.name
)
class TestTemplateStaysPristine:
    """Every compile entry point works on a structural clone; whatever
    the passes do to it, the template serialises byte-identically."""

    SPLITS = {"edge", "edge-presplit", "pyramid"}

    def _check(self, family, split_report):
        name, g, before = family
        if name in self.SPLITS:
            assert split_report.any_split  # the clone really was mutated
        assert json.dumps(graph_to_dict(g), sort_keys=True) == before

    def test_compile(self, family, device):
        compiled = Framework(device, plan_cache=False).compile(family[1])
        assert compiled.graph is not family[1]
        self._check(family, compiled.split_report)

    def test_compile_multi(self, family, device):
        compiled = compile_multi(
            family[1], homogeneous_group(device, 2), plan_cache=False
        )
        self._check(family, compiled.split_report)

    def test_compile_incremental(self, family, device):
        inc = Framework(device, plan_cache=PlanCache()).compile_incremental(
            family[1]
        )
        self._check(family, inc.compiled.split_report)
