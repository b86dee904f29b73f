"""Tests for the discrete-event stream execution engine.

Three pillars, mirroring the invariants ``repro.runtime.events``
documents:

* **oracle equality** — :func:`simulate_plan_overlap` is the engine's
  single-shared-copy-engine configuration, timing for timing (the
  event-for-event oracle is ``tests/reference_events.py``, driven by
  ``tests/test_events_oracle.py``);
* **overlap never loses** — ``total_time <= sync_total_time`` in every
  configuration, and the per-direction engine never loses to the
  shared one;
* **execution fidelity** — firing steps in dependency order instead of
  plan order changes no output bit, and the recorded profile genuinely
  overlaps streams.
"""

import numpy as np
import pytest

from repro.core import CompileOptions, Framework, dfs_schedule, schedule_transfers
from repro.core.graph import OperatorGraph
from repro.gpusim import TESLA_C870, XEON_WORKSTATION, GpuDevice
from repro.runtime import (
    execute_plan_events,
    plan_streams,
    reference_execute,
    simulate_plan_events,
    simulate_plan_overlap,
    step_stream,
)
from repro.runtime.events import (
    COMPUTE,
    D2H_STREAM,
    H2D_STREAM,
    HOST_STREAM,
    SHARED_COPY,
)
from repro.templates import find_edges_graph, find_edges_inputs

KB = 1024

#: small memory forces evictions (re-uploads + saving downloads), which
#: is where the dependency model earns its keep
DEVICES = {
    "tight": GpuDevice(name="ev-tight", memory_bytes=128 * KB),
    "roomy": GpuDevice(name="ev-roomy", memory_bytes=2048 * KB),
}


@pytest.fixture(scope="module")
def compiled():
    g = find_edges_graph(96, 64, 5, 4)
    fw = Framework(DEVICES["tight"], host=XEON_WORKSTATION)
    return fw.compile(g)


def _compile_on(device):
    g = find_edges_graph(96, 64, 5, 4)
    return Framework(device, host=XEON_WORKSTATION).compile(g)


# ---------------------------------------------------------------------------
# Oracle equality: shared copy engine == simulate_plan_overlap, exactly
# ---------------------------------------------------------------------------
class TestOracleEquality:
    @pytest.mark.parametrize("device", sorted(DEVICES))
    @pytest.mark.parametrize("in_order", [False, True])
    def test_shared_engine_matches_overlap_prediction(self, device, in_order):
        """One copy engine + one compute engine is exactly the
        ``simulate_plan_overlap`` hardware model — bit-for-bit, not
        approximately: the predictor is this configuration."""
        compiled = _compile_on(DEVICES[device])
        tl = simulate_plan_events(
            compiled.plan,
            compiled.graph,
            DEVICES[device],
            copy_streams="shared",
            in_order_copy=in_order,
        )
        ov = simulate_plan_overlap(
            compiled.plan, compiled.graph, DEVICES[device],
            in_order_copy=in_order,
        )
        assert tl.total_time == ov.total_time
        assert tl.copy_busy == ov.copy_busy
        assert tl.compute_busy == ov.compute_busy
        assert tl.sync_total_time == ov.sync_total_time

    def test_executed_timeline_matches_simulated(self, compiled):
        """Executing payloads through the engine does not perturb the
        timeline: event-for-event equal to the timing-only run."""
        sim = simulate_plan_events(
            compiled.plan, compiled.graph, DEVICES["tight"]
        )
        run = execute_plan_events(
            compiled.plan,
            compiled.graph,
            DEVICES["tight"],
            find_edges_inputs(96, 64, 5, 4, seed=3),
        )
        assert run.timeline.total_time == sim.total_time
        assert len(run.timeline.events) == len(sim.events)
        for a, b in zip(run.timeline.events, sim.events):
            assert (a.index, a.stream, a.start, a.finish) == (
                b.index, b.stream, b.start, b.finish
            )

    def test_hidden_transfer_accounting(self, compiled):
        tl = simulate_plan_events(
            compiled.plan, compiled.graph, DEVICES["tight"]
        )
        assert tl.hidden_transfer_time == pytest.approx(
            tl.sync_total_time - tl.total_time
        )
        assert 0.0 <= tl.hidden_transfer_fraction <= 1.0
        assert tl.speedup >= 1.0


# ---------------------------------------------------------------------------
# Overlap never loses
# ---------------------------------------------------------------------------
class TestTimingInvariants:
    @pytest.mark.parametrize("device", sorted(DEVICES))
    @pytest.mark.parametrize("mode", ["per-direction", "shared"])
    def test_never_slower_than_sync(self, device, mode):
        compiled = _compile_on(DEVICES[device])
        tl = simulate_plan_events(
            compiled.plan, compiled.graph, DEVICES[device], copy_streams=mode
        )
        assert tl.total_time <= tl.sync_total_time + 1e-12
        assert tl.total_time >= tl.compute_busy - 1e-12

    @pytest.mark.parametrize("device", sorted(DEVICES))
    def test_per_direction_never_loses_to_shared(self, device):
        """Splitting the DMA engine by direction removes contention; it
        can never add any."""
        compiled = _compile_on(DEVICES[device])
        split = simulate_plan_events(
            compiled.plan, compiled.graph, DEVICES[device],
            copy_streams="per-direction",
        )
        shared = simulate_plan_events(
            compiled.plan, compiled.graph, DEVICES[device],
            copy_streams="shared",
        )
        assert split.total_time <= shared.total_time + 1e-12

    def test_events_respect_dependencies(self, compiled):
        """Replay check: no event starts before all its deps finish,
        and each engine runs serially (no self-overlap)."""
        tl = simulate_plan_events(
            compiled.plan, compiled.graph, DEVICES["tight"]
        )
        finish = {ev.index: ev.finish for ev in tl.events}
        for ev in tl.events:
            for d in ev.deps:
                assert ev.start >= finish[d] - 1e-12, (
                    f"event {ev.index} started before dep {d} finished"
                )
        for stream, evs in tl.by_stream().items():
            ordered = sorted(evs, key=lambda e: e.start)
            for a, b in zip(ordered, ordered[1:]):
                assert b.start >= a.finish - 1e-12, (
                    f"stream {stream} overlaps itself"
                )

    def test_frees_gate_nothing(self, compiled):
        """Frees are host bookkeeping: zero duration, and no timed
        event depends on one."""
        tl = simulate_plan_events(
            compiled.plan, compiled.graph, DEVICES["tight"]
        )
        free_idx = {
            ev.index for ev in tl.events if ev.stream == HOST_STREAM
        }
        assert free_idx, "tight device should produce frees"
        for ev in tl.events:
            if ev.stream == HOST_STREAM:
                assert ev.duration == 0.0
            else:
                assert not free_idx.intersection(ev.deps)

    def test_serial_chain_cannot_overlap(self):
        """upload -> compute -> download strictly serialises (matches
        the overlap module's own boundary case)."""
        g = OperatorGraph()
        g.add_data("a", (64, 64), is_input=True)
        g.add_data("b", (64, 64), is_output=True)
        g.add_operator("op", "tanh", ["a"], ["b"])
        plan = schedule_transfers(g, dfs_schedule(g), 10**9)
        tl = simulate_plan_events(plan, g, TESLA_C870)
        assert tl.total_time == pytest.approx(tl.sync_total_time, rel=1e-9)
        assert tl.hidden_transfer_fraction == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Execution fidelity
# ---------------------------------------------------------------------------
class TestExecution:
    @pytest.mark.parametrize("mode", ["per-direction", "shared"])
    def test_outputs_bit_identical_to_sync_executor(self, compiled, mode):
        inputs = find_edges_inputs(96, 64, 5, 4, seed=3)
        fw = Framework(DEVICES["tight"], host=XEON_WORKSTATION)
        sync = fw.execute(compiled, inputs)
        run = execute_plan_events(
            compiled.plan,
            compiled.graph,
            DEVICES["tight"],
            inputs,
            copy_streams=mode,
        )
        assert set(run.outputs) == set(sync.outputs)
        for name in sync.outputs:
            assert np.array_equal(run.outputs[name], sync.outputs[name]), name
        ref = reference_execute(find_edges_graph(96, 64, 5, 4), inputs)
        for name in ref:
            assert np.array_equal(run.outputs[name], ref[name]), name

    def test_transfer_counters_match_plan(self, compiled):
        run = execute_plan_events(
            compiled.plan,
            compiled.graph,
            DEVICES["tight"],
            find_edges_inputs(96, 64, 5, 4, seed=3),
        )
        assert run.h2d_floats == compiled.plan.h2d_floats(compiled.graph)
        assert run.d2h_floats == compiled.plan.d2h_floats(compiled.graph)

    def test_profile_genuinely_overlaps(self):
        """The recorded profile is the executed timeline: at least one
        transfer runs concurrently with a kernel on an overlappable
        template."""
        g = OperatorGraph()
        g.add_data("K", (16, 16), is_input=True)
        for i in range(8):
            g.add_data(f"a{i}", (256, 256), is_input=True)
            g.add_data(f"b{i}", (256, 256), is_output=True)
            g.add_operator(
                f"op{i}", "conv2d", [f"a{i}", "K"], [f"b{i}"], mode="same"
            )
        fw = Framework(TESLA_C870, host=XEON_WORKSTATION)
        compiled = fw.compile(g)
        rng = np.random.default_rng(0)
        inputs = {
            name: rng.standard_normal(ds.shape).astype(np.float32)
            for name, ds in g.data.items()
            if ds.is_input and ds.parent is None
        }
        run = execute_plan_events(
            compiled.plan, compiled.graph, TESLA_C870, inputs
        )
        assert run.total_time < run.sync_total_time - 1e-12
        kernels = [
            (e.start, e.start + e.duration)
            for e in run.profile.events
            if e.kind.name == "KERNEL"
        ]
        copies = [
            (e.start, e.start + e.duration)
            for e in run.profile.events
            if e.kind.name in ("H2D", "D2H") and e.duration > 0
        ]
        assert any(
            ks < ce and cs < ke
            for ks, ke in kernels
            for cs, ce in copies
        ), "no transfer overlapped any kernel"
        assert 0.0 <= run.overlap_efficiency <= 1.0
        assert run.overlap_efficiency > 0.0

    def test_stream_profiles_partition_the_profile(self, compiled):
        run = execute_plan_events(
            compiled.plan,
            compiled.graph,
            DEVICES["tight"],
            find_edges_inputs(96, 64, 5, 4, seed=3),
        )
        named = run.stream_profiles()
        names = [n for n, _ in named]
        assert COMPUTE in names and H2D_STREAM in names
        assert sum(len(p.events) for _, p in named) == len(run.profile.events)
        # Chrome-trace export lays each stream out as its own track.
        from repro.obs import chrome_trace

        trace = chrome_trace(profiles=named)
        assert trace["traceEvents"]

    def test_shared_mode_collapses_copy_tracks(self, compiled):
        run = execute_plan_events(
            compiled.plan,
            compiled.graph,
            DEVICES["tight"],
            find_edges_inputs(96, 64, 5, 4, seed=3),
            copy_streams="shared",
        )
        names = [n for n, _ in run.stream_profiles()]
        assert SHARED_COPY in names
        assert H2D_STREAM not in names and D2H_STREAM not in names


# ---------------------------------------------------------------------------
# Stream assignment surface (the `repro explain` column)
# ---------------------------------------------------------------------------
class TestStreamAssignment:
    def test_plan_streams_aligns_with_timeline(self, compiled):
        streams = plan_streams(compiled.plan)
        tl = simulate_plan_events(
            compiled.plan, compiled.graph, DEVICES["tight"]
        )
        assert streams == tl.stream_table()
        assert len(streams) == len(compiled.plan.steps)

    def test_step_stream_kinds(self, compiled):
        for step, stream in zip(compiled.plan.steps, plan_streams(compiled.plan)):
            text = str(step).split(None, 1)[0]
            expected = {
                "h2d": H2D_STREAM,
                "d2h": D2H_STREAM,
                "exec": COMPUTE,
                "free": HOST_STREAM,
            }[text]
            assert stream == expected
            assert step_stream(step) == expected

    def test_shared_mode_stream_names(self, compiled):
        streams = plan_streams(compiled.plan, copy_streams="shared")
        assert SHARED_COPY in streams
        assert H2D_STREAM not in streams and D2H_STREAM not in streams


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------
class TestValidation:
    def test_bad_copy_streams_rejected(self, compiled):
        with pytest.raises(ValueError, match="copy_streams"):
            simulate_plan_events(
                compiled.plan, compiled.graph, DEVICES["tight"],
                copy_streams="triple",
            )

    def test_multi_device_plans_rejected(self):
        from repro.gpusim import homogeneous_group
        from repro.multigpu import compile_multi

        g = find_edges_graph(64, 64, 5, 4)
        compiled = compile_multi(g, homogeneous_group(TESLA_C870, 2))
        with pytest.raises(ValueError, match="single-device"):
            simulate_plan_events(compiled.plan, compiled.graph, TESLA_C870)
