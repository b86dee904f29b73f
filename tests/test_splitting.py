"""Tests for operator splitting (Section 3.2)."""

import gc
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GraphError,
    InfeasibleTemplateError,
    OperatorGraph,
    chunk_range,
    chunks_of,
    estimate_split,
    make_feasible,
    select_chunks,
)
from repro.core import splitting as splitting_module
from repro.core.graph import op_slots
from repro.core.serialize import graph_to_dict
from repro.runtime import reference_execute
from repro.templates import find_edges_graph, find_edges_inputs

from .reference_splitting import _split_reduction, partition_data, split_combine, split_operator

rng = np.random.default_rng(7)


def conv_graph(h=100, w=100, k=5, mode="valid"):
    g = OperatorGraph("conv")
    g.add_data("A", (h, w), is_input=True)
    g.add_data("K", (k, k), is_input=True)
    if mode == "valid":
        g.add_data("B", (h - k + 1, w - k + 1), is_output=True)
    else:
        g.add_data("B", (h, w), is_output=True)
    g.add_operator("C", "conv2d", ["A", "K"], ["B"], mode=mode)
    return g


class TestPaperExample:
    """Section 3.2: 100x100 (*) 5x5 split in two -> two 100x52 inputs."""

    def test_split_sizes_and_offsets(self):
        g = conv_graph()
        parts = split_operator(g, "C", 2)
        assert len(parts) == 2
        g.validate()
        s0 = op_slots(g.ops[parts[0]], g)[0]
        s1 = op_slots(g.ops[parts[1]], g)[0]
        assert s0.rows == (0, 52)  # 48 output rows need 52 input rows
        assert s1.rows == (48, 100)
        # outputs are 48-row halves of the 96-row result
        assert g.data[g.ops[parts[0]].outputs[0]].shape == (48, 96)
        assert g.data[g.ops[parts[1]].outputs[0]].shape == (48, 96)

    def test_kernel_never_split(self):
        g = conv_graph()
        parts = split_operator(g, "C", 4)
        for p in parts:
            kslot = op_slots(g.ops[p], g)[1]
            assert kslot.rows is None
            assert kslot.chunks == ["K"]
        assert not g.data["K"].virtual

    def test_numerics_preserved(self):
        g = conv_graph()
        a = rng.standard_normal((100, 100)).astype(np.float32)
        kk = rng.standard_normal((5, 5)).astype(np.float32)
        ref = reference_execute(conv_graph(), {"A": a, "K": kk})["B"]
        split_operator(g, "C", 3)
        out = reference_execute(g, {"A": a, "K": kk})["B"]
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)


class TestPartitionData:
    def make(self):
        g = OperatorGraph()
        g.add_data("A", (10, 4), is_input=True)
        g.add_data("B", (10, 4), is_output=True)
        g.add_operator("op", "remap", ["A"], ["B"])
        return g

    def test_basic_partition(self):
        g = self.make()
        partition_data(g, "A", [5])
        assert g.data["A"].virtual
        names = chunks_of(g, "A")
        assert [chunk_range(g, n) for n in names] == [(0, 5), (5, 10)]
        # consumer rewired to both chunks
        assert set(g.ops["op"].inputs) == set(names)
        g.validate()

    def test_refinement_keeps_existing_cuts(self):
        g = self.make()
        partition_data(g, "A", [5])
        partition_data(g, "A", [2, 5, 8])
        names = chunks_of(g, "A")
        assert [chunk_range(g, n) for n in names] == [
            (0, 2), (2, 5), (5, 8), (8, 10),
        ]
        g.validate()

    def test_noop_partition(self):
        g = self.make()
        partition_data(g, "A", [])
        assert not g.data["A"].virtual
        partition_data(g, "A", [0, 10])
        assert not g.data["A"].virtual

    def test_repartition_same_cuts_is_stable(self):
        g = self.make()
        partition_data(g, "A", [5])
        before = chunks_of(g, "A")
        partition_data(g, "A", [5])
        assert chunks_of(g, "A") == before

    def test_producer_rewritten_to_scatter(self):
        g = self.make()
        partition_data(g, "B", [4])
        op = g.ops["op"]
        specs = op.params["out_specs"]
        assert [c for _, c in specs[0].chunks] == [(0, 4), (4, 10)]
        assert len(op.outputs) == 2
        g.validate()

    def test_output_flag_inherited(self):
        g = self.make()
        partition_data(g, "B", [4])
        for n in chunks_of(g, "B"):
            assert g.data[n].is_output

    def test_partitioning_a_chunk_rejected(self):
        g = self.make()
        partition_data(g, "A", [5])
        chunk = chunks_of(g, "A")[0]
        with pytest.raises(Exception):
            partition_data(g, chunk, [2])

    def test_select_chunks(self):
        g = self.make()
        partition_data(g, "A", [3, 7])
        assert len(select_chunks(g, "A", None)) == 3
        sel = select_chunks(g, "A", (2, 4))
        assert [chunk_range(g, n) for n in sel] == [(0, 3), (3, 7)]
        sel = select_chunks(g, "A", (3, 7))
        assert [chunk_range(g, n) for n in sel] == [(3, 7)]


class TestSplitOperator:
    def test_split_one_returns_original(self):
        g = conv_graph()
        assert split_operator(g, "C", 1) == ["C"]

    def test_split_capped_by_rows(self):
        g = conv_graph(h=8, w=8, k=3)
        parts = split_operator(g, "C", 100)
        assert len(parts) == 6  # output has 6 rows

    def test_unsplittable_kind_raises(self):
        g = OperatorGraph()
        g.add_data("a", (4, 4), is_input=True)
        g.add_data("b", (4, 4), is_output=True)
        g.add_operator("f", "combine_partials", ["a"], ["b"], fn="sum")
        with pytest.raises(InfeasibleTemplateError):
            split_operator(g, "f", 2)

    def test_resplit_part(self):
        """Splitting a part again refines, preserving numerics."""
        g = conv_graph(mode="same")
        a = rng.standard_normal((100, 100)).astype(np.float32)
        kk = rng.standard_normal((5, 5)).astype(np.float32)
        ref = reference_execute(conv_graph(mode="same"), {"A": a, "K": kk})["B"]
        parts = split_operator(g, "C", 2)
        split_operator(g, parts[0], 2)
        g.validate()
        out = reference_execute(g, {"A": a, "K": kk})["B"]
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_multi_consumer_input_partition(self):
        """Partitioning an input rewires all its consumers."""
        g = OperatorGraph()
        g.add_data("A", (20, 4), is_input=True)
        g.add_data("B", (20, 4))
        g.add_data("C", (20, 4), is_output=True)
        g.add_operator("p", "remap", ["A"], ["B"])
        g.add_operator("q", "max", ["A", "B"], ["C"])
        split_operator(g, "q", 2)
        g.validate()
        assert g.data["A"].virtual
        # p (unsplit) now reads both chunks of A
        assert len(g.ops["p"].inputs) == 2

    def test_reduce_partial_split(self):
        g = OperatorGraph()
        g.add_data("X", (12, 5), is_input=True)
        g.add_data("S", (1, 5), is_output=True)
        g.add_operator("r", "reduce", ["X"], ["S"], fn="mean")
        x = rng.standard_normal((12, 5)).astype(np.float32)
        ref = x.mean(axis=0, keepdims=True)
        parts = split_operator(g, "r", 3)
        g.validate()
        assert any("combine" in p for p in parts)
        out = reference_execute(g, {"X": x})["S"]
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("fn", ["sum", "max"])
    def test_reduce_partial_split_fns(self, fn):
        g = OperatorGraph()
        g.add_data("X", (10, 3), is_input=True)
        g.add_data("S", (1, 3), is_output=True)
        g.add_operator("r", "reduce", ["X"], ["S"], fn=fn)
        x = rng.standard_normal((10, 3)).astype(np.float32)
        ref = getattr(x, fn)(axis=0, keepdims=True)
        split_operator(g, "r", 4)
        out = reference_execute(g, {"X": x})["S"]
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)


class TestEstimate:
    def test_estimate_matches_actual(self):
        for nparts in (2, 3, 5):
            g = conv_graph(mode="same")
            est = estimate_split(g, "C", nparts)
            parts = split_operator(g, "C", nparts)
            actual = max(g.op_footprint(p) for p in parts)
            assert est == actual, nparts

    def test_estimate_unsplit(self):
        g = conv_graph()
        assert estimate_split(g, "C", 1) == g.op_footprint("C")


class TestMakeFeasible:
    def test_noop_when_fits(self):
        g = find_edges_graph(32, 32, 5, 4)
        rep = make_feasible(g, 10**9)
        assert not rep.any_split
        assert rep.rounds == 0

    def test_footprints_bounded(self):
        for cap_frac in (1.0, 0.5, 0.25, 0.1):
            g = find_edges_graph(60, 40, 7, 4).copy()
            cap = int(g.max_footprint() * cap_frac) + 100
            rep = make_feasible(g, cap)
            assert all(g.op_footprint(o) <= cap for o in g.ops)

    def test_numerics_across_capacities(self):
        inputs = find_edges_inputs(48, 40, 5, 4, seed=3)
        ref = reference_execute(find_edges_graph(48, 40, 5, 4), inputs)["Edg"]
        for cap in (6000, 3000, 1500, 800):
            g = find_edges_graph(48, 40, 5, 4).copy()
            make_feasible(g, cap)
            out = reference_execute(g, inputs)["Edg"]
            np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_infeasible_when_kernel_alone_too_big(self):
        g = conv_graph(h=10, w=10, k=5)
        with pytest.raises(InfeasibleTemplateError):
            make_feasible(g, 20)  # kernel is 25 floats

    def test_capacity_must_be_positive(self):
        g = conv_graph()
        with pytest.raises(ValueError):
            make_feasible(g, 0)

    def test_a_frozen_graph_raises_and_stays_unsplit(self):
        g = find_edges_graph(60, 40, 7, 4)
        assert g.frozen

        def state():
            return (graph_to_dict(g), dict(g.producer),
                    {d: list(c) for d, c in g.consumers.items()},
                    {r: list(c) for r, c in g.children.items()})

        before = state()
        with pytest.raises(GraphError, match="frozen"):
            make_feasible(g, g.max_footprint() // 2)
        assert state() == before
        rep = make_feasible(g, 10**9)  # nothing to split: only checked
        assert not rep.any_split and state() == before

    def test_report_contents(self):
        g = find_edges_graph(60, 40, 7, 4).copy()
        cap = g.max_footprint() // 2
        rep = make_feasible(g, cap)
        assert rep.any_split
        assert rep.split_ops
        assert rep.partitioned_roots
        for root, n in rep.partitioned_roots.items():
            assert len(chunks_of(g, root)) == n


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(12, 40),
    w=st.integers(4, 16),
    cap_frac=st.floats(0.15, 1.0),
    seed=st.integers(0, 99),
)
def test_property_split_preserves_results_and_capacity(h, w, cap_frac, seed):
    """Random chain templates stay correct and within capacity when split."""
    r = np.random.default_rng(seed)
    g = OperatorGraph("chain")
    g.add_data("X", (h, w), is_input=True)
    g.add_data("T1", (h, w))
    g.add_data("T2", (h, w))
    g.add_data("Y", (h, w), is_output=True)
    g.add_operator("r1", "remap", ["X"], ["T1"])
    g.add_operator("t", "tanh", ["T1"], ["T2"])
    g.add_operator("m", "max", ["T1", "T2"], ["Y"])
    x = r.standard_normal((h, w)).astype(np.float32)
    ref = np.maximum(np.abs(x), np.tanh(np.abs(x)))
    cap = max(int(g.max_footprint() * cap_frac), 3 * w + 1)
    make_feasible(g, cap)
    assert all(g.op_footprint(o) <= cap for o in g.ops)
    out = reference_execute(g, {"X": x})["Y"]
    np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)


class TestTreeCombine:
    """Tree reduction when a flat combine would not fit device memory."""

    def build(self, H=400, W=8):
        g = OperatorGraph()
        g.add_data("X", (H, W), is_input=True)
        g.add_data("S", (1, W), is_output=True)
        g.add_operator("r", "reduce", ["X"], ["S"], fn="mean")
        return g

    @pytest.mark.parametrize("fn", ["sum", "max", "mean"])
    def test_numerics_with_tiny_capacity(self, fn):
        H, W = 400, 8
        g = self.build(H, W)
        g.ops["r"].params["fn"] = fn
        x = rng.standard_normal((H, W)).astype(np.float32)
        cap = 10 * W
        make_feasible(g, cap)
        assert all(g.op_footprint(o) <= cap for o in g.ops)
        out = reference_execute(g, {"X": x})["S"]
        ref = getattr(x, fn)(axis=0, keepdims=True)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)

    def test_merge_tree_structure(self):
        g = self.build()
        make_feasible(g, 10 * 8)
        merges = [o for o in g.ops if "merge" in o or "combine" in o]
        assert len(merges) > 1  # an actual tree, not a flat combine

    def test_split_combine_direct(self):
        g = self.build(H=64, W=4)
        _split_reduction(g, "r", 8)
        combine = next(o for o in g.ops if o.endswith(".combine"))
        parts = split_combine(g, combine, fan_in=3)
        g.validate()
        assert len(parts) >= 3
        x = rng.standard_normal((64, 4)).astype(np.float32)
        out = reference_execute(g, {"X": x})["S"]
        np.testing.assert_allclose(
            out, x.mean(axis=0, keepdims=True), rtol=1e-4, atol=1e-5
        )

    def test_fan_in_below_two_rejected(self):
        g = self.build(H=64, W=4)
        _split_reduction(g, "r", 4)
        combine = next(o for o in g.ops if o.endswith(".combine"))
        with pytest.raises(InfeasibleTemplateError):
            split_combine(g, combine, fan_in=1)


class TestCollectorHold:
    """``make_feasible`` holds the cyclic collector off while it splits;
    the hold is shared by overlapping splits and restores what it found."""

    def test_overlapping_splits_keep_the_collector_off(self, monkeypatch):
        """B enters while A holds the collector; A leaves while B is still
        building: the collector must stay off until B leaves too."""
        assert gc.isenabled()
        real_build = splitting_module._Plan.build
        a_building, b_building, a_left = (threading.Event() for _ in range(3))
        seen: dict[str, object] = {}

        def build(self):
            if threading.current_thread().name == "A":
                a_building.set()
                b_building.wait(10)
            else:
                b_building.set()
                a_left.wait(10)
                seen["collecting in B after A left"] = gc.isenabled()
            return real_build(self)

        def split(name: str, after: threading.Event | None) -> None:
            try:
                if after is not None:
                    after.wait(10)
                make_feasible(conv_graph(), 2000)
            except Exception as exc:  # reported by the assertion below
                seen[name] = exc
            finally:
                if name == "A":
                    a_left.set()

        monkeypatch.setattr(splitting_module._Plan, "build", build)
        threads = [
            threading.Thread(target=split, args=("A", None), name="A"),
            threading.Thread(target=split, args=("B", a_building), name="B"),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"collecting in B after A left": False}
        assert gc.isenabled()

    def test_many_threads_never_see_the_collector_on_while_holding(self):
        assert gc.isenabled()
        seen_on = []

        def churn():
            for _ in range(2000):
                splitting_module.hold_collector()
                try:
                    if gc.isenabled():
                        seen_on.append(True)
                finally:
                    splitting_module.release_collector()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen_on == [] and splitting_module._holders == 0
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            make_feasible(conv_graph(), 2000)
            with pytest.raises(InfeasibleTemplateError):
                make_feasible(conv_graph(), 10)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_a_failed_split_restores_the_collector(self):
        assert gc.isenabled()
        with pytest.raises(InfeasibleTemplateError):
            make_feasible(conv_graph(), 10)
        assert gc.isenabled()
