"""Tests for offload-unit identification (chain fusion)."""

import numpy as np

from repro.core import (
    Framework,
    CompileOptions,
    OperatorGraph,
    dfs_schedule,
    identify_offload_units,
    schedule_transfers,
    validate_plan,
)
from repro.gpusim import GpuDevice
from repro.runtime import reference_execute


def chain_graph(n=4, size=(8, 8)):
    g = OperatorGraph("chain")
    g.add_data("d0", size, is_input=True)
    for i in range(n):
        g.add_data(f"d{i + 1}", size, is_output=(i == n - 1))
        g.add_operator(f"o{i}", "tanh", [f"d{i}"], [f"d{i + 1}"])
    return g


def branchy_graph():
    g = OperatorGraph("branchy")
    g.add_data("in", (8, 8), is_input=True)
    g.add_data("mid", (8, 8))
    g.add_data("a", (8, 8), is_output=True)
    g.add_data("b", (8, 8), is_output=True)
    g.add_operator("pre", "tanh", ["in"], ["mid"])
    g.add_operator("left", "remap", ["mid"], ["a"])
    g.add_operator("right", "scale", ["mid"], ["b"], factor=2.0)
    return g


class TestFusion:
    def test_whole_chain_fuses(self):
        g = chain_graph(4)
        n = identify_offload_units(g, 10**9)
        assert n == 3
        assert len(g.ops) == 1
        (op,) = g.ops.values()
        assert op.kind == "fused"
        g.validate()

    def test_fused_numerics(self):
        g = chain_graph(4)
        x = np.random.default_rng(0).standard_normal((8, 8)).astype(np.float32)
        ref = reference_execute(chain_graph(4), {"d0": x})["d4"]
        identify_offload_units(g, 10**9)
        out = reference_execute(g, {"d0": x})["d4"]
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)

    def test_memory_cap_limits_fusion(self):
        g = chain_graph(4)
        # Footprint of a fused pair = 3 arrays of 64; cap below blocks all.
        n = identify_offload_units(g, 64 * 3 - 1)
        assert n == 0
        assert len(g.ops) == 4

    def test_multi_consumer_not_fused(self):
        g = branchy_graph()
        n = identify_offload_units(g, 10**9)
        # 'pre' feeds two consumers: cannot fuse into either.
        assert "pre" in " ".join(g.ops)
        assert all(op.kind != "fused" or "pre" not in op.name for op in g.ops.values()) or n == 0

    def test_template_output_not_internalised(self):
        g = chain_graph(2)
        g.mark_output("d1")  # intermediate is also an output
        n = identify_offload_units(g, 10**9)
        assert n == 0

    def test_split_ops_not_fused(self):
        from repro.core import make_feasible

        g = chain_graph(3, size=(16, 8))
        make_feasible(g, 16 * 8 * 2)  # forces splitting
        before = len(g.ops)
        identify_offload_units(g, 16 * 8 * 2)
        assert len(g.ops) == before  # split parts carry slots: untouched

    def test_fused_plan_schedules_and_validates(self):
        g = chain_graph(5)
        identify_offload_units(g, 10**9)
        plan = schedule_transfers(g, dfs_schedule(g), 10**9)
        validate_plan(plan, g)
        # One offload unit -> IO-only transfers and a single launch.
        assert len(plan.launches()) == 1
        assert plan.transfer_floats(g) == 128

    def test_framework_option(self):
        g = chain_graph(4)
        x = np.random.default_rng(1).standard_normal((8, 8)).astype(np.float32)
        ref = reference_execute(chain_graph(4), {"d0": x})["d4"]
        fw = Framework(
            GpuDevice(name="t", memory_bytes=1 << 20),
            options=CompileOptions(fuse_offload_units=True),
        )
        compiled = fw.compile(g)
        assert compiled.fused_units > 0
        res = fw.execute(compiled, {"d0": x})
        np.testing.assert_allclose(res.outputs["d4"], ref, rtol=1e-5, atol=1e-6)

    def test_fusion_reduces_launches_and_transfers(self):
        g1 = chain_graph(6)
        g2 = chain_graph(6)
        identify_offload_units(g2, 10**9)
        cap = 10**9
        p1 = schedule_transfers(g1, dfs_schedule(g1), cap)
        p2 = schedule_transfers(g2, dfs_schedule(g2), cap)
        assert len(p2.launches()) < len(p1.launches())
        assert p2.transfer_floats(g2) <= p1.transfer_floats(g1)
