"""Tests for the dynamic run-time orchestration library."""

import numpy as np
import pytest

from repro.core import Framework, dfs_schedule, make_feasible, online_plan
from repro.gpusim import GpuDevice, HostSystem, SimRuntime
from repro.runtime import (
    DynamicExecutor,
    dynamic_execute,
    reference_execute,
    simulate_plan,
)
from repro.templates import (
    SMALL_CNN,
    cnn_graph,
    cnn_inputs,
    find_edges_graph,
    find_edges_inputs,
)

DEV = GpuDevice(name="dyn-dev", memory_bytes=128 * 1024)


@pytest.fixture(scope="module")
def edge_case():
    g = find_edges_graph(48, 40, 5, 4)
    inputs = find_edges_inputs(48, 40, 5, 4, seed=5)
    ref = reference_execute(g, inputs)["Edg"]
    return g, inputs, ref


class TestCorrectness:
    def test_matches_reference_unsplit(self, edge_case):
        g, inputs, ref = edge_case
        res = dynamic_execute(g.copy(), SimRuntime(DEV), inputs)
        np.testing.assert_allclose(res.outputs["Edg"], ref, rtol=1e-4, atol=1e-5)

    def test_matches_reference_split(self, edge_case):
        g, inputs, ref = edge_case
        g2 = g.copy()
        make_feasible(g2, DEV.usable_memory_floats // 3)
        res = dynamic_execute(g2, SimRuntime(DEV), inputs)
        np.testing.assert_allclose(res.outputs["Edg"], ref, rtol=1e-4, atol=1e-5)

    def test_respects_custom_order(self, edge_case):
        g, inputs, ref = edge_case
        g2 = g.copy()
        order = dfs_schedule(g2)
        res = dynamic_execute(g2, SimRuntime(DEV), inputs, op_order=order)
        np.testing.assert_allclose(res.outputs["Edg"], ref, rtol=1e-4, atol=1e-5)

    def test_cnn(self):
        g = cnn_graph(SMALL_CNN, 48, 48)
        inputs = cnn_inputs(SMALL_CNN, 48, 48, seed=3)
        ref = reference_execute(g, inputs)
        res = dynamic_execute(
            g.copy(), SimRuntime(GpuDevice(name="t", memory_bytes=64 * 1024)), inputs
        )
        for k in ref:
            np.testing.assert_allclose(res.outputs[k], ref[k], rtol=1e-4, atol=1e-5)


class TestMemoryBehaviour:
    def test_capacity_respected_by_allocator(self, edge_case):
        """The simulator's allocator would fault on over-commitment; a
        clean run therefore proves memory stayed within the device."""
        g, inputs, _ = edge_case
        g2 = g.copy()
        make_feasible(g2, DEV.usable_memory_floats // 3)
        rt = SimRuntime(DEV)
        dynamic_execute(g2, rt, inputs)
        assert rt.allocator.peak_in_use <= DEV.memory_bytes

    def test_pinned_overflow_raises(self, edge_case):
        """An unsplit operator larger than memory cannot be orchestrated."""
        g, inputs, _ = edge_case
        tiny = GpuDevice(name="tiny", memory_bytes=8 * 1024)
        with pytest.raises(RuntimeError, match="split the template"):
            dynamic_execute(g.copy(), SimRuntime(tiny), inputs)

    def test_headroom_shrinks_budget(self, edge_case):
        g, inputs, _ = edge_case
        g2 = g.copy()
        make_feasible(g2, DEV.usable_memory_floats // 4)
        ex = DynamicExecutor(
            g2, SimRuntime(DEV), headroom_floats=DEV.usable_memory_floats // 2
        )
        res = ex.run(inputs)
        assert res.transfer_floats > 0


class TestStaticVsDynamic:
    def test_static_never_transfers_more(self, edge_case):
        """Plan-ahead (Belady) beats or ties online LRU orchestration."""
        g, inputs, _ = edge_case
        for mem in (128 * 1024, 64 * 1024, 40 * 1024):
            dev = GpuDevice(name=f"m{mem}", memory_bytes=mem)
            fw = Framework(dev)
            compiled = fw.compile(g)
            static = compiled.transfer_floats()
            g2 = compiled.graph.copy()
            dyn = dynamic_execute(
                g2, SimRuntime(dev), inputs, op_order=compiled.op_order
            )
            assert static <= dyn.transfer_floats, mem

    def test_accounting_consistent(self, edge_case):
        g, inputs, _ = edge_case
        rt = SimRuntime(DEV)
        res = dynamic_execute(g.copy(), rt, inputs)
        assert res.transfer_floats * 4 == rt.profile.bytes_transferred()
        assert res.elapsed == pytest.approx(rt.clock)


class TestOnePlanInterpreter:
    """The library runs as a plan on the synchronous walker, so it gets
    every rule that walker enforces."""

    def test_host_paging_is_modelled(self):
        dev = GpuDevice(name="m64", memory_bytes=64 * 1024)
        host = HostSystem(name="tiny-host", memory_bytes=40 * 1024)
        compiled = Framework(dev).compile(find_edges_graph(96, 96, 9, 8))
        graph, order = compiled.graph, compiled.op_order
        res = dynamic_execute(
            graph, SimRuntime(dev, host), find_edges_inputs(96, 96, 9, 8), order
        )
        plan = online_plan(graph, dev.usable_memory_floats, order)
        assert simulate_plan(plan, graph, dev, host).thrashed
        assert res.thrashed

    def test_a_second_run_uses_the_second_inputs(self):
        g = find_edges_graph(48, 40, 5, 4)
        ex = DynamicExecutor(g, SimRuntime(DEV))
        first = ex.run(find_edges_inputs(48, 40, 5, 4, seed=1))
        inputs = find_edges_inputs(48, 40, 5, 4, seed=2)
        second = ex.run(inputs)
        np.testing.assert_array_equal(
            second.outputs["Edg"], reference_execute(g, inputs)["Edg"]
        )
        assert second.h2d_floats == first.h2d_floats
