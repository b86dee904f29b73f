"""Unit tests for the multi-GPU execution planning subsystem.

Covers the pieces end to end: device groups and the shared-bus model,
cost-balanced partitioning, the multi-device transfer scheduler in both
transfer modes, plan serialization with a device dimension, the
coordinated runtime, the analytic simulator, the scaling report, the
per-device Chrome-trace export, and the CLI surface.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import CompileOptions, Framework, schedule_transfers
from repro.core.plan import Free, Launch, PeerCopy, PlanError, validate_plan
from repro.core.scheduling import dfs_schedule, row_band
from repro.core.serialize import plan_from_dict, plan_to_dict
from repro.gpusim import (
    XEON_WORKSTATION,
    DeviceGroup,
    GpuDevice,
    SharedBus,
    SimRuntime,
    homogeneous_group,
)
from repro.multigpu import (
    MultiSimRuntime,
    compile_multi,
    execute_multi,
    execute_multi_plan,
    partition_graph,
    simulate_multi,
    simulate_multi_plan,
)
from repro.obs.chrometrace import chrome_trace
from repro.runtime import execute_plan, reference_execute, simulate_plan
from repro.templates import (
    SMALL_CNN,
    cnn_graph,
    cnn_inputs,
    dog_pyramid_graph,
    dog_pyramid_inputs,
    find_edges_graph,
    find_edges_inputs,
)

KB = 1024
DEV = GpuDevice(name="mg-dev", memory_bytes=256 * KB)


def _edge():
    g = find_edges_graph(48, 40, 5, 4)
    return g, find_edges_inputs(48, 40, 5, 4, seed=9)


def group_plan(g, order, group, part, *, capacities=None, **kw):
    """Plan a device group with the one transfer scheduler."""
    return schedule_transfers(
        g, order, capacities or group.usable_memory_floats,
        op_device=[part.device_of(o) for o in g.ops], **kw,
    )


class TestDeviceGroup:
    def test_basic_properties(self):
        group = homogeneous_group(DEV, 3)
        assert len(group) == 3
        assert group[1].name == DEV.name
        assert group.usable_memory_floats == [DEV.usable_memory_floats] * 3

    def test_requires_a_device(self):
        with pytest.raises(ValueError):
            DeviceGroup(devices=())

    def test_peer_time_scales_with_size(self):
        group = homogeneous_group(DEV, 2)
        assert group.peer_time(0) == 0.0
        small, big = group.peer_time(4 * KB), group.peer_time(4 * KB * KB)
        assert 0.0 < small < big

    def test_shared_bus_serializes(self):
        bus = SharedBus()
        b1, e1 = bus.acquire(0.0, 1.0)
        b2, e2 = bus.acquire(0.5, 1.0)  # ready before the bus frees
        assert (b1, e1) == (0.0, 1.0)
        assert b2 == pytest.approx(1.0)
        assert e2 == pytest.approx(2.0)
        assert bus.total_busy == pytest.approx(2.0)


class TestPartition:
    def test_single_device_fast_path(self):
        g, _ = _edge()
        order = dfs_schedule(g)
        part = partition_graph(g, order, homogeneous_group(DEV, 1))
        assert set(part.assignment.values()) == {0}
        assert part.imbalance == pytest.approx(1.0)

    def test_band_contiguity(self):
        """Parts of the same row band land on the same device."""
        g, _ = _edge()
        from repro.core.splitting import make_feasible

        make_feasible(g, g.total_data_size() // 4)
        order = dfs_schedule(g)
        group = homogeneous_group(DEV, 2)
        part = partition_graph(g, order, group)
        # Band-major order means each device owns a contiguous range of
        # band-start rows; the maximum band start on device 0 is at most
        # the minimum on device 1 (ties allowed at the boundary).
        starts = [[], []]
        for op in g.ops:
            band = row_band(g, op)
            if band is not None:
                starts[part.device_of(op)].append(band[0])
        if starts[0] and starts[1]:
            assert max(starts[0]) <= min(starts[1]) or (
                part.imbalance < 1.5
            )

    def test_rejects_wrong_order(self):
        g, _ = _edge()
        with pytest.raises(ValueError):
            partition_graph(g, ["nope"], homogeneous_group(DEV, 2))

    # sha256 prefixes of (assignment, device_costs as float.hex), recorded
    # while the partitioner still derived each operator's cost per read
    PINNED = {
        ("edge", 2, False): "bf897dd208c9be04",
        ("edge", 2, True): "9678b7fbe0d18542",
        ("edge", 4, False): "3c99d55cb288e466",
        ("edge", 4, True): "3034518f3452ca30",
        ("small-cnn", 2, False): "cb7e6eb64ee6fb3b",
        ("small-cnn", 2, True): "d277e7d9b88b6237",
        ("small-cnn", 4, False): "34b0f73cc4f92ff0",
        ("small-cnn", 4, True): "a255dcf9e8bdce00",
        ("pyramid", 2, False): "b450c189d1606043",
        ("pyramid", 2, True): "1d9381ef74ca8fae",
        ("pyramid", 4, False): "cf34f2ecc4711a0d",
        ("pyramid", 4, True): "069f93be75481127",
    }

    @pytest.mark.parametrize("case", list(PINNED), ids=str)
    def test_partition_is_pinned(self, case):
        from repro.core.splitting import make_feasible

        template, n, mixed = case
        g = {
            "edge": lambda: find_edges_graph(96, 80, 5, 4),
            "small-cnn": lambda: cnn_graph(SMALL_CNN, 64, 48),
            "pyramid": lambda: dog_pyramid_graph(96, 96, 3),
        }[template]()
        make_feasible(g, g.total_data_size() // 6)
        # mixed: every device after the first is a slower part
        slow = GpuDevice(
            name="slow", memory_bytes=256 * KB, num_cores=32, internal_bandwidth=20e9
        )
        devices = (DEV,) + ((slow if mixed else DEV),) * (n - 1)
        part = partition_graph(g, dfs_schedule(g), DeviceGroup(devices), XEON_WORKSTATION)
        blob = json.dumps(
            [list(part.assignment.items()), [c.hex() for c in part.device_costs]]
        )
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == self.PINNED[case]


class TestScheduler:
    def _parts(self, n):
        g, _ = _edge()
        order = dfs_schedule(g)
        group = homogeneous_group(DEV, n)
        return g, order, group, partition_graph(g, order, group)

    def test_peer_mode_emits_peer_copies(self):
        g, order, group, part = self._parts(2)
        plan = group_plan(g, order, group, part)
        assert plan.num_devices == 2
        assert len(plan.devices) == len(plan.steps)
        validate_plan(plan, g, group.usable_memory_floats)

    def test_staged_mode_never_peers(self):
        g, order, group, part = self._parts(2)
        plan = group_plan(
            g, order, group, part, transfer_mode="staged"
        )
        assert not any(isinstance(s, PeerCopy) for s in plan.steps)
        validate_plan(plan, g, group.usable_memory_floats)

    def test_peer_floats_accounting(self):
        g, order, group, part = self._parts(2)
        peer = group_plan(g, order, group, part)
        staged = group_plan(
            g, order, group, part, transfer_mode="staged"
        )
        if any(isinstance(s, PeerCopy) for s in peer.steps):
            assert peer.peer_floats(g) > 0
            # Staging routes the same bytes through the host instead.
            assert staged.transfer_floats(g) > peer.transfer_floats(g)

    def test_rejects_unknown_policy_and_mode(self):
        g, order, group, part = self._parts(2)
        with pytest.raises(ValueError):
            group_plan(g, order, group, part, policy="magic")
        with pytest.raises(ValueError):
            group_plan(g, order, group, part, transfer_mode="wires")

    def test_capacity_overflow_raises(self):
        g, order, group, part = self._parts(2)
        with pytest.raises(PlanError):
            group_plan(g, order, group, part, capacities=[64, 64])


class TestSerialization:
    def test_device_dimension_round_trips(self):
        g, _ = _edge()
        order = dfs_schedule(g)
        group = homogeneous_group(DEV, 2)
        part = partition_graph(g, order, group)
        plan = group_plan(g, order, group, part)
        raw = plan_to_dict(plan)
        back = plan_from_dict(raw)
        assert back.devices == plan.devices
        assert [type(s) for s in back.steps] == [type(s) for s in plan.steps]
        for a, b in zip(plan.steps, back.steps):
            if isinstance(a, PeerCopy):
                assert (a.data, a.src, a.dst) == (b.data, b.src, b.dst)

    def test_validate_rejects_length_mismatch(self):
        g, _ = _edge()
        order = dfs_schedule(g)
        group = homogeneous_group(DEV, 2)
        part = partition_graph(g, order, group)
        plan = group_plan(g, order, group, part)
        plan.devices.append(0)
        with pytest.raises(PlanError):
            validate_plan(plan, g, group.usable_memory_floats)


class TestExecution:
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["peer", "staged"])
    def test_outputs_match_reference(self, n, mode):
        g, inputs = _edge()
        ref = reference_execute(g.copy(), inputs)
        compiled = compile_multi(
            g.copy(), homogeneous_group(DEV, n), transfer_mode=mode
        )
        result = execute_multi(compiled, inputs)
        assert result.num_devices == n
        for name, arr in ref.items():
            assert np.array_equal(result.outputs[name], arr)

    def test_per_device_profiles_and_clocks(self):
        g, inputs = _edge()
        compiled = compile_multi(g.copy(), homogeneous_group(DEV, 2))
        result = execute_multi(compiled, inputs)
        assert len(result.profiles) == 2
        assert len(result.device_clocks) == 2
        assert result.elapsed == pytest.approx(max(result.device_clocks))
        assert result.transfer_floats == result.h2d_floats + result.d2h_floats

    def test_shared_bus_never_faster(self):
        g, inputs = _edge()
        free = compile_multi(g.copy(), homogeneous_group(DEV, 2))
        shared = compile_multi(
            g.copy(), homogeneous_group(DEV, 2, shared_bus=True)
        )
        t_free = execute_multi(free, inputs).elapsed
        t_shared = execute_multi(shared, inputs).elapsed
        assert t_shared >= t_free - 1e-12

    def test_simulate_respects_capacity(self):
        g, _ = _edge()
        compiled = compile_multi(g.copy(), homogeneous_group(DEV, 2))
        sim = simulate_multi(compiled)
        assert sim.total_time > 0
        assert len(sim.device_times) == 2
        assert sim.total_time == pytest.approx(max(sim.device_times))
        for peak in sim.peak_device_floats:
            assert peak <= DEV.usable_memory_floats


SINGLE_TEMPLATES = {
    "edge": lambda: (find_edges_graph(48, 40, 5, 4), find_edges_inputs(48, 40, 5, 4, seed=9)),
    "small-cnn": lambda: (cnn_graph(SMALL_CNN, 48, 48), cnn_inputs(SMALL_CNN, 48, 48, seed=3)),
    "pyramid": lambda: (dog_pyramid_graph(64, 64), dog_pyramid_inputs(64, 64, seed=4)),
}


class TestSingleDeviceIsOneOfN:
    """One device is the N = 1 case of the device-tagged walk, bit for bit."""

    @pytest.mark.parametrize("memory", [64 * KB, 64 * KB * KB], ids=["tight", "roomy"])
    @pytest.mark.parametrize("template", sorted(SINGLE_TEMPLATES))
    def test_single_plan_walked_as_a_group_of_one(self, template, memory):
        device = GpuDevice(name="n1-dev", memory_bytes=memory)
        graph, inputs = SINGLE_TEMPLATES[template]()
        compiled = Framework(device, host=XEON_WORKSTATION).compile(graph)
        plan, g = compiled.plan, compiled.graph
        group = homogeneous_group(device, 1)

        one = execute_plan(plan, g, SimRuntime(device, XEON_WORKSTATION), inputs)
        multi = execute_multi_plan(plan, g, MultiSimRuntime(group, XEON_WORKSTATION), inputs)
        assert one.outputs.keys() == multi.outputs.keys()
        for name, arr in one.outputs.items():
            assert np.array_equal(multi.outputs[name], arr)
        assert multi.elapsed == one.elapsed
        assert multi.device_clocks == [one.elapsed]
        assert (multi.h2d_floats, multi.d2h_floats) == (one.h2d_floats, one.d2h_floats)
        assert multi.thrashed == one.thrashed
        assert multi.profiles[0].events == one.profile.events

        sim = simulate_plan(plan, g, device, XEON_WORKSTATION)
        msim = simulate_multi_plan(plan, g, group, XEON_WORKSTATION)
        assert msim.total_time == sim.total_time
        assert msim.device_times == [sim.total_time]
        assert msim.peak_device_floats == [sim.peak_device_floats]
        for name in ("transfer_time", "compute_time", "h2d_floats", "d2h_floats",
                     "launches", "thrashed"):
            assert getattr(msim, name) == getattr(sim, name), name
        assert (msim.peer_time, msim.peer_floats) == (0.0, 0)


class TestScalingReport:
    def test_report_rows(self):
        from repro.analysis import render_scaling, scaling_report

        report = scaling_report(
            find_edges_graph(64, 64, 5, 4), DEV, device_counts=(1, 2)
        )
        assert [r.num_devices for r in report.rows] == [1, 2]
        assert report.rows[0].total_time > 0
        assert report.rows[0].speedup == pytest.approx(1.0)
        assert report.transfer_ratio() >= 0.0
        text = render_scaling(report)
        assert "gpus" in text and "speedup" in text


class TestChromeTrace:
    def test_per_device_tracks(self, tmp_path):
        g, inputs = _edge()
        compiled = compile_multi(g.copy(), homogeneous_group(DEV, 2))
        result = execute_multi(compiled, inputs)
        trace = chrome_trace(
            profiles=[(f"gpu{i}", p) for i, p in enumerate(result.profiles)]
        )
        events = trace["traceEvents"]
        pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert len(pids) == 2, "expected one track group per device"
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))
        assert json.loads(path.read_text())["traceEvents"]


class TestCli:
    def test_compile_multi(self, capsys):
        assert (
            main(
                [
                    "compile",
                    "--template", "edge",
                    "--size", "64x64",
                    "--num-devices", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "devices" in out

    def test_run_multi_verify(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--template", "edge",
                    "--size", "64x64",
                    "--num-devices", "2",
                    "--verify",
                ]
            )
            == 0
        )

    def test_run_multi_staged_bus(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--template", "edge",
                    "--size", "48x48",
                    "--num-devices", "3",
                    "--transfer-mode", "staged",
                    "--shared-bus",
                ]
            )
            == 0
        )
