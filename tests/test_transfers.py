"""Tests for data-transfer scheduling (Section 3.3.1)."""

import pytest

from repro.core import (
    OperatorGraph,
    OutSpec,
    PlanError,
    Slot,
    bfs_schedule,
    dfs_schedule,
    make_feasible,
    schedule_transfers,
    validate_plan,
)
from repro.templates import find_edges_graph

POLICIES = ("belady", "cost", "ltu", "lru", "fifo")


def fig3_graph():
    """The paper's Figure 3/6 illustration (unit sizes, capacity 5)."""
    g = OperatorGraph("fig3")
    g.add_data("Im", (2, 1), is_input=True)
    g.add_data("E1", (2, 1), virtual=True)
    g.add_data("E2", (2, 1), virtual=True)
    g.add_data("E1p", (1, 1), parent="E1", row_range=(0, 1))
    g.add_data("E1q", (1, 1), parent="E1", row_range=(1, 2))
    g.add_data("E2p", (1, 1), parent="E2", row_range=(0, 1))
    g.add_data("E2q", (1, 1), parent="E2", row_range=(1, 2))
    for s in ("E5p", "E5q", "E6p", "E6q"):
        g.add_data(s, (1, 1))
    g.add_data("Ep", (1, 1), is_output=True)
    g.add_data("Eq", (1, 1), is_output=True)
    g.add_operator(
        "C1", "remap", ["Im"], ["E1p", "E1q"],
        slots=[Slot("Im", None, ["Im"])],
        out_specs=[OutSpec("E1", (0, 2), [("E1p", (0, 1)), ("E1q", (1, 2))])],
    )
    g.add_operator(
        "C2", "remap", ["Im"], ["E2p", "E2q"],
        slots=[Slot("Im", None, ["Im"])],
        out_specs=[OutSpec("E2", (0, 2), [("E2p", (0, 1)), ("E2q", (1, 2))])],
    )
    g.add_operator("R1p", "remap", ["E1p"], ["E5p"])
    g.add_operator("R1q", "remap", ["E1q"], ["E5q"])
    g.add_operator("R2p", "remap", ["E2p"], ["E6p"])
    g.add_operator("R2q", "remap", ["E2q"], ["E6q"])
    g.add_operator("max1", "max", ["E5p", "E6p"], ["Ep"])
    g.add_operator("max2", "max", ["E5q", "E6q"], ["Eq"])
    g.validate()
    return g


GOOD_ORDER = ["C1", "C2", "R1p", "R2p", "max1", "R1q", "R2q", "max2"]
BAD_ORDER = ["C1", "C2", "R1p", "R1q", "R2p", "R2q", "max1", "max2"]


class TestFigure3:
    """The paper's schedule-impact illustration."""

    def test_paper_good_schedule_costs_8_without_eager_free(self):
        """Figure 3(b)'s 8 transfer units, reproduced with the paper's
        illustrated discipline (no eager deletion, recency eviction)."""
        g = fig3_graph()
        plan = schedule_transfers(
            g, GOOD_ORDER, 5, policy="lru", eager_free=False
        )
        assert plan.transfer_floats(g) == 8

    def test_paper_bad_schedule_costs_more(self):
        """Figure 3(a): the sibling-first order transfers substantially
        more (paper: 15 vs 8) under the same discipline."""
        g = fig3_graph()
        bad = schedule_transfers(
            g, BAD_ORDER, 5, policy="lru", eager_free=False
        ).transfer_floats(g)
        good = schedule_transfers(
            g, GOOD_ORDER, 5, policy="lru", eager_free=False
        ).transfer_floats(g)
        assert bad > good
        assert bad >= 12

    def test_full_heuristic_reaches_joint_optimum(self):
        """Belady + eager free achieves 6 units — the exact joint optimum
        (verified against the PB formulation) — under either order."""
        g = fig3_graph()
        for order in (GOOD_ORDER, BAD_ORDER):
            plan = schedule_transfers(g, order, 5)
            assert plan.transfer_floats(g) == 6

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("eager", [True, False])
    def test_all_configurations_valid(self, policy, eager):
        g = fig3_graph()
        for order in (GOOD_ORDER, BAD_ORDER, dfs_schedule(g)):
            plan = schedule_transfers(
                g, order, 5, policy=policy, eager_free=eager
            )
            peak = validate_plan(plan, g, 5)
            assert peak <= 5


class TestGeneralProperties:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_edge_template_plans_valid(self, policy):
        g = find_edges_graph(40, 30, 5, 4)
        cap = g.max_footprint() + 10
        order = dfs_schedule(g)
        plan = schedule_transfers(g, order, cap, policy=policy)
        assert validate_plan(plan, g, cap) <= cap

    def test_split_graph_plans_valid(self):
        g = find_edges_graph(60, 40, 7, 8)
        cap = g.max_footprint() // 3
        make_feasible(g, cap)
        for order_fn in (dfs_schedule, bfs_schedule):
            plan = schedule_transfers(g, order_fn(g), cap)
            assert validate_plan(plan, g, cap) <= cap

    def test_everything_fits_transfers_io_only(self):
        """With ample memory the plan moves exactly inputs + outputs."""
        g = find_edges_graph(32, 32, 5, 4)
        plan = schedule_transfers(g, dfs_schedule(g), 10**9)
        assert plan.transfer_floats(g) == g.io_size()

    def test_op_exceeding_capacity_rejected(self):
        g = find_edges_graph(32, 32, 5, 4)
        with pytest.raises(PlanError, match="splitting"):
            schedule_transfers(g, dfs_schedule(g), 100)

    def test_wrong_op_cover_rejected(self):
        g = find_edges_graph(32, 32, 5, 4)
        with pytest.raises(ValueError):
            schedule_transfers(g, ["C1"], 10**9)

    @pytest.mark.parametrize(
        "entry", ["core", "multi_transfers", "partition", "pb_fixed_order"]
    )
    def test_duplicated_operator_rejected(self, entry):
        """A repeated operator has the right *set* but is not a cover."""
        from repro.core import PBScheduler
        from repro.gpusim import GpuDevice, homogeneous_group
        from repro.multigpu import partition_graph

        g = find_edges_graph(32, 32, 5, 4)
        order = dfs_schedule(g)
        dup = order + order[:1]
        group = homogeneous_group(GpuDevice(name="dup", memory_bytes=2**24), 2)
        calls = {
            "core": lambda: schedule_transfers(g, dup, 10**9),
            "multi_transfers": lambda: schedule_transfers(
                g, dup, group.usable_memory_floats,
                op_device=[1] * len(g.ops),
            ),
            "partition": lambda: partition_graph(g, dup, group),
            "pb_fixed_order": lambda: PBScheduler(g, 10**9, fixed_order=dup),
        }
        with pytest.raises(ValueError, match="must cover exactly"):
            calls[entry]()

    def test_unknown_policy_rejected(self):
        g = find_edges_graph(32, 32, 5, 4)
        with pytest.raises(ValueError):
            schedule_transfers(g, dfs_schedule(g), 10**9, policy="belody")

    def test_tight_capacity_more_transfers(self):
        """Transfer volume decreases monotonically with memory (spot check)."""
        g = find_edges_graph(64, 48, 5, 8)
        order = dfs_schedule(g)
        caps = [g.max_footprint() + 1, g.total_data_size(), 10**9]
        vols = [
            schedule_transfers(g, order, c).transfer_floats(g) for c in caps
        ]
        assert vols[0] >= vols[1] >= vols[2]
        assert vols[2] == g.io_size()

    def test_belady_never_worse_than_fifo_on_edge(self):
        g = find_edges_graph(64, 48, 5, 8)
        cap = g.max_footprint() + 10
        order = dfs_schedule(g)
        belady = schedule_transfers(g, order, cap, policy="belady")
        fifo = schedule_transfers(g, order, cap, policy="fifo")
        assert belady.transfer_floats(g) <= fifo.transfer_floats(g)

    def test_label_records_configuration(self):
        g = find_edges_graph(32, 32, 5, 4)
        plan = schedule_transfers(
            g, dfs_schedule(g), 10**9, policy="lru", eager_free=False
        )
        assert plan.label == "lru+lazy"
