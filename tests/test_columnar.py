"""Columnar planner IR: lowering, schedulers, transfers, Framework wiring.

The byte-identity contract (engine plans == tests/reference_planner.py
plans, steps and provenance notes alike) is pinned by
tests/test_differential.py; this file covers the tables themselves and
the Framework wiring.
"""

import json

import pytest

import repro.core
from repro.core import (
    CompileOptions,
    Framework,
    dfs_naive_schedule,
    dfs_schedule,
    lower,
    plan_to_dict,
    schedule_transfers,
)
from repro.core.plan import PlanError
from repro.gpusim import GpuDevice
from repro.templates import cnn_graph, find_edges_graph, SMALL_CNN

from . import reference_planner

KB = 1024
DEV = GpuDevice(name="col-dev", memory_bytes=256 * KB)


def edge():
    return find_edges_graph(48, 40, 5, 4)


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------
class TestLowering:
    def test_ids_are_insertion_order(self):
        g = edge()
        col = lower(g)
        assert col.data_names == list(g.data)
        assert col.op_names == list(g.ops)
        assert all(col.data_id[d] == i for i, d in enumerate(col.data_names))
        assert all(col.op_id[o] == i for i, o in enumerate(col.op_names))

    def test_data_columns(self):
        g = edge()
        col = lower(g)
        for i, (d, ds) in enumerate(g.data.items()):
            assert col.data_size[i] == ds.size
            assert col.data_is_output[i] == (ds.is_output and not ds.virtual)

    def test_band_start_column(self):
        g = edge()
        col = lower(g)
        for i, op in enumerate(g.ops.values()):
            rng = op.params.get("out_range")
            assert col.band_start[i] == (rng[0] if rng else 0)

    def test_csr_adjacency_matches_object_graph(self):
        g = cnn_graph(SMALL_CNN, 48, 48)
        col = lower(g)
        for i, (o, op) in enumerate(g.ops.items()):
            ins = [col.data_names[d]
                   for d in col.in_ids[col.in_ptr[i]:col.in_ptr[i + 1]]]
            assert ins == list(op.inputs)
            uins = [col.data_names[d]
                    for d in col.uin_ids[col.uin_ptr[i]:col.uin_ptr[i + 1]]]
            assert uins == list(dict.fromkeys(op.inputs))
            succs = [col.op_names[s]
                     for s in col.succ_ids[col.succ_ptr[i]:col.succ_ptr[i + 1]]]
            assert succs == g.op_successors(o)
            assert col.pred_counts[i] == len(g.op_predecessors(o))

    def test_counts(self):
        g = edge()
        col = lower(g)
        assert col.n_data == len(g.data)
        assert col.n_ops == len(g.ops)


# ---------------------------------------------------------------------------
# Schedulers
# ---------------------------------------------------------------------------
class TestColumnarSchedulers:
    def test_dfs_matches_reference(self):
        g = cnn_graph(SMALL_CNN, 48, 48)
        assert dfs_schedule(g) == reference_planner.dfs_schedule(g)

    def test_dfs_naive_matches_reference(self):
        g = cnn_graph(SMALL_CNN, 48, 48)
        assert dfs_naive_schedule(g) == reference_planner.dfs_naive_schedule(g)

    def test_reuses_prelowered_tables(self):
        g = edge()
        col = lower(g)
        assert dfs_schedule(g, col) == dfs_schedule(g)

    def test_bench_stage_names_are_the_engine(self):
        """bench/layers.py resolves its staged compile by these names."""
        assert repro.core.dfs_schedule_columnar is dfs_schedule
        assert repro.core.schedule_transfers_columnar is schedule_transfers


# ---------------------------------------------------------------------------
# Transfers
# ---------------------------------------------------------------------------
class TestColumnarTransfers:
    def test_rejects_unknown_policy(self):
        g = edge()
        with pytest.raises(ValueError, match="unknown eviction policy"):
            schedule_transfers(g, dfs_schedule(g), 10**6, policy="mru")

    def test_rejects_partial_op_order(self):
        g = edge()
        order = dfs_schedule(g)[:-1]
        with pytest.raises(ValueError, match="op_order must cover"):
            schedule_transfers(g, order, 10**6)

    def test_infeasible_footprint_raises_plan_error(self):
        g = edge()
        with pytest.raises(PlanError, match="footprint"):
            schedule_transfers(g, dfs_schedule(g), 16)

    def test_plan_matches_reference_bytes(self):
        g = cnn_graph(SMALL_CNN, 48, 48)
        order = dfs_schedule(g)
        cap = max(g.max_footprint(), 1) * 2
        ref = reference_planner.schedule_transfers(g, order, cap)
        got = schedule_transfers(g, order, cap, col=lower(g))
        assert json.dumps(plan_to_dict(ref), sort_keys=True) == json.dumps(
            plan_to_dict(got), sort_keys=True
        )


# ---------------------------------------------------------------------------
# Framework wiring
# ---------------------------------------------------------------------------
class TestEngineWiring:
    def test_lowering_span_recorded(self):
        """Every compile lowers once and plans on the tables — also when
        an ablation scheduler (here bfs) picked the order on the graph."""
        for opts in (
            CompileOptions(),
            CompileOptions(scheduler="bfs", split_headroom=1.0),
        ):
            c = Framework(DEV, options=opts, plan_cache=False).compile(edge())
            assert "lowering" in {sp.name for sp in c.spans}
            ref = reference_planner.schedule_transfers(
                c.graph, c.op_order, DEV.usable_memory_floats
            )
            assert json.dumps(plan_to_dict(c.plan), sort_keys=True) == (
                json.dumps(plan_to_dict(ref), sort_keys=True)
            )


# ---------------------------------------------------------------------------
# Plan accounting memoization
# ---------------------------------------------------------------------------
class TestPlanAccounting:
    def test_sums_stable_across_calls(self):
        g = edge()
        cap = max(g.max_footprint(), 1) * 2
        plan = schedule_transfers(g, dfs_schedule(g), cap)
        first = (plan.h2d_floats(g), plan.d2h_floats(g), plan.transfer_floats(g))
        again = (plan.h2d_floats(g), plan.d2h_floats(g), plan.transfer_floats(g))
        assert first == again
        assert plan.summary(g)["transfer_floats"] == first[2]

    def test_cache_invalidates_on_append(self):
        from repro.core import CopyToGPU

        g = edge()
        cap = max(g.max_footprint(), 1) * 2
        plan = schedule_transfers(g, dfs_schedule(g), cap)
        before = plan.h2d_floats(g)
        extra = next(iter(g.data))
        plan.steps.append(CopyToGPU(extra))
        assert plan.h2d_floats(g) == before + g.data[extra].size
