"""Tests for plan execution: reference, numeric-on-simulator, analytic."""

import timeit

import numpy as np
import pytest

from repro.core import (
    Framework,
    OperatorGraph,
    baseline_plan,
    dfs_schedule,
    make_feasible,
    schedule_transfers,
)
from repro.core.plan import (
    CopyToCPU,
    CopyToGPU,
    ExecutionPlan,
    Free,
    Launch,
    validate_plan,
)
from repro.gpusim import (
    GpuDevice,
    HostSystem,
    SimRuntime,
    XEON_WORKSTATION,
    homogeneous_group,
)
from repro.multigpu import simulate_multi_plan
from repro.runtime import (
    execute_plan,
    reference_execute,
    simulate_plan,
)
from repro.templates import (
    SMALL_CNN,
    cnn_graph,
    cnn_inputs,
    dog_pyramid_graph,
    dog_pyramid_inputs,
    find_edges_graph,
    find_edges_inputs,
)

DEV = GpuDevice(name="test-dev", memory_bytes=256 * 1024)  # 64k floats


class TestReferenceExecute:
    def test_edge_matches_numpy(self):
        from scipy.signal import correlate2d

        g = find_edges_graph(20, 16, 3, 2)
        inputs = find_edges_inputs(20, 16, 3, 2, seed=1)
        out = reference_execute(g, inputs)["Edg"]
        e1 = correlate2d(inputs["Img"], inputs["K1"], mode="same")
        e2 = np.abs(e1)
        np.testing.assert_allclose(out, np.maximum(e1, e2), rtol=1e-4, atol=1e-5)

    def test_missing_input_raises(self):
        g = find_edges_graph(10, 10, 3, 2)
        with pytest.raises(KeyError):
            reference_execute(g, {"Img": np.zeros((10, 10), np.float32)})


class TestExecutePlan:
    def build(self, cap_frac=0.5):
        g = find_edges_graph(48, 40, 5, 4)
        cap = int(g.max_footprint() * cap_frac)
        make_feasible(g, cap)
        plan = schedule_transfers(g, dfs_schedule(g), cap)
        return g, plan

    def test_matches_reference(self):
        inputs = find_edges_inputs(48, 40, 5, 4, seed=2)
        ref = reference_execute(find_edges_graph(48, 40, 5, 4), inputs)["Edg"]
        g, plan = self.build()
        rt = SimRuntime(DEV)
        res = execute_plan(plan, g, rt, inputs)
        np.testing.assert_allclose(res.outputs["Edg"], ref, rtol=1e-4, atol=1e-5)

    def test_result_accounting(self):
        g, plan = self.build()
        inputs = find_edges_inputs(48, 40, 5, 4, seed=2)
        rt = SimRuntime(DEV)
        res = execute_plan(plan, g, rt, inputs)
        assert res.h2d_floats == plan.h2d_floats(g)
        assert res.d2h_floats == plan.d2h_floats(g)
        assert res.elapsed > 0
        assert res.transfer_time > 0
        assert res.compute_time > 0
        assert res.elapsed == pytest.approx(rt.clock)

    def test_device_capacity_enforced_by_allocator(self):
        """A plan compiled for a big device fails on a smaller one."""
        from repro.gpusim import OutOfDeviceMemoryError

        g = find_edges_graph(48, 40, 5, 4)
        plan = schedule_transfers(g, dfs_schedule(g), 10**9)
        tiny = SimRuntime(GpuDevice(name="tiny", memory_bytes=10 * 1024))
        with pytest.raises(OutOfDeviceMemoryError):
            execute_plan(plan, g, tiny, find_edges_inputs(48, 40, 5, 4))

    def test_baseline_plan_executes(self):
        g = find_edges_graph(32, 24, 3, 2)
        inputs = find_edges_inputs(32, 24, 3, 2, seed=5)
        ref = reference_execute(g, inputs)["Edg"]
        plan = baseline_plan(g, 10**9)
        rt = SimRuntime(GpuDevice(name="big", memory_bytes=64 * 1024 * 1024))
        res = execute_plan(plan, g, rt, inputs)
        np.testing.assert_allclose(res.outputs["Edg"], ref, rtol=1e-4, atol=1e-5)


class TestSimulatePlan:
    def test_agrees_with_numeric_execution(self):
        g = find_edges_graph(48, 40, 5, 4)
        cap = int(g.max_footprint() * 0.5)
        make_feasible(g, cap)
        plan = schedule_transfers(g, dfs_schedule(g), cap)
        sim = simulate_plan(plan, g, DEV)
        rt = SimRuntime(DEV)
        res = execute_plan(plan, g, rt, find_edges_inputs(48, 40, 5, 4))
        assert sim.h2d_floats == res.h2d_floats
        assert sim.d2h_floats == res.d2h_floats
        assert sim.transfer_time == pytest.approx(res.transfer_time, rel=1e-6)
        assert sim.compute_time == pytest.approx(res.compute_time, rel=1e-6)

    def test_peak_device_usage(self):
        g = find_edges_graph(32, 24, 3, 2)
        plan = schedule_transfers(g, dfs_schedule(g), 10**9)
        sim = simulate_plan(plan, g, DEV)
        assert 0 < sim.peak_device_floats <= g.total_data_size()

    def test_thrashing_flag(self):
        """Transfers slow down and the run is flagged once the host
        working set exceeds RAM (Table 2's inconsistent entries)."""
        from repro.gpusim import HostSystem

        g = find_edges_graph(64, 48, 5, 4)
        cap = g.max_footprint() // 2
        make_feasible(g, cap)
        plan = schedule_transfers(g, dfs_schedule(g), cap)
        tiny_host = HostSystem(name="tiny-host", memory_bytes=1024)
        sim = simulate_plan(plan, g, DEV, tiny_host)
        ok = simulate_plan(plan, g, DEV, XEON_WORKSTATION)
        assert sim.thrashed and sim.inconsistent
        assert not ok.thrashed
        assert sim.total_time > ok.total_time

    def test_breakdown_fractions(self):
        g = find_edges_graph(32, 24, 3, 2)
        plan = schedule_transfers(g, dfs_schedule(g), 10**9)
        sim = simulate_plan(plan, g, DEV)
        bd = sim.breakdown()
        assert bd["transfer"] + bd["compute"] == pytest.approx(1.0)

    def test_record_events(self):
        g = find_edges_graph(32, 24, 3, 2)
        plan = schedule_transfers(g, dfs_schedule(g), 10**9)
        sim = simulate_plan(plan, g, DEV, record_events=True)
        assert len(sim.events) == len(plan.steps)

    @pytest.mark.parametrize("memory", [64 * 1024, 64 * 1024 * 1024], ids=["tight", "roomy"])
    @pytest.mark.parametrize("template", ["edge", "small-cnn", "pyramid"])
    def test_total_time_is_execute_elapsed(self, template, memory):
        """Both loops report the same makespan, bit for bit, when the
        allocator never compacts and the host never pages."""
        import repro

        graph, inputs = {
            "edge": lambda: (find_edges_graph(48, 40, 5, 4), find_edges_inputs(48, 40, 5, 4)),
            "small-cnn": lambda: (cnn_graph(SMALL_CNN, 48, 48), cnn_inputs(SMALL_CNN, 48, 48)),
            "pyramid": lambda: (dog_pyramid_graph(64, 64), dog_pyramid_inputs(64, 64)),
        }[template]()
        device = GpuDevice(name="t", memory_bytes=memory)
        compiled = repro.compile(graph, device=device, host=XEON_WORKSTATION)
        run = repro.execute(compiled, inputs)
        assert run.metrics["counters"].get("gpu.compactions", 0) == 0
        assert run.thrashed is False
        assert repro.simulate(compiled).total_time == run.elapsed


def _fan_out(k: int):
    """k operators each read one input and write a template output; the
    plan downloads every output as it is made, so k host copies stay live."""
    g = OperatorGraph(f"fan{k}")
    g.add_data("x", (4, 4), is_input=True)
    steps = [CopyToGPU("x")]
    for i in range(k):
        g.add_data(f"y{i}", (4, 4), is_output=True)
        g.add_operator(f"o{i}", "relu", ["x"], [f"y{i}"])
        steps += [Launch(f"o{i}"), CopyToCPU(f"y{i}"), Free(f"y{i}")]
    plan = ExecutionPlan(steps=steps + [Free("x")])
    validate_plan(plan, g, 10**6)
    return g, plan


class TestHostAccounting:
    def test_simulate_cost_per_step_does_not_grow_with_live_host_copies(self):
        def per_step(k: int) -> float:
            g, plan = _fan_out(k)
            best = min(
                timeit.timeit(lambda: simulate_plan(plan, g, DEV), number=1)
                for _ in range(5)
            )
            return best / len(plan.steps)

        k = 500
        assert per_step(4 * k) / per_step(k) < 2

    def test_dead_host_copies_retire_on_every_device_count(self):
        """A staged 2-device plan pages exactly when its single-device
        replay does: a host copy dies after its last reader on any device."""
        g = OperatorGraph("staged")
        g.add_data("x", (64, 64), is_input=True)
        tagged: list[tuple[int, object]] = [(0, CopyToGPU("x"))]
        k = 8
        for i in range(k):
            g.add_data(f"t{i}", (64, 64))
            g.add_data(f"y{i}", (64, 64), is_output=True)
            g.add_operator(f"p{i}", "relu", ["x"], [f"t{i}"])
            g.add_operator(f"c{i}", "tanh", [f"t{i}"], [f"y{i}"])
            tagged += [
                (0, Launch(f"p{i}")), (0, CopyToCPU(f"t{i}")), (0, Free(f"t{i}")),
                (1, CopyToGPU(f"t{i}")), (1, Launch(f"c{i}")), (1, Free(f"t{i}")),
                (1, CopyToCPU(f"y{i}")), (1, Free(f"y{i}")),
            ]
        tagged.append((0, Free("x")))
        steps = [s for _, s in tagged]
        two = ExecutionPlan(steps=steps, devices=[d for d, _ in tagged])
        one = ExecutionPlan(steps=list(steps))
        validate_plan(two, g, [10**6, 10**6])
        validate_plan(one, g, 10**6)
        floats = 64 * 64 * 4
        # RAM holds the input, every output and one live intermediate,
        # but not the intermediates that are already dead.
        host = HostSystem(name="small", memory_bytes=floats * (k + 2))
        assert floats * (1 + 2 * k) > host.memory_bytes
        single = simulate_plan(one, g, DEV, host)
        assert single.thrashed is False
        multi = simulate_multi_plan(two, g, homogeneous_group(DEV, 2), host)
        assert multi.thrashed == single.thrashed


class TestCNNEndToEnd:
    def test_small_cnn_split_and_executed(self):
        g = cnn_graph(SMALL_CNN, 48, 48)
        inputs = cnn_inputs(SMALL_CNN, 48, 48, seed=9)
        ref = reference_execute(cnn_graph(SMALL_CNN, 48, 48), inputs)
        fw = Framework(GpuDevice(name="t", memory_bytes=64 * 1024))
        compiled = fw.compile(g)
        res = fw.execute(compiled, inputs)
        assert set(res.outputs) == set(ref)
        for k in ref:
            np.testing.assert_allclose(
                res.outputs[k], ref[k], rtol=1e-4, atol=1e-5
            )
