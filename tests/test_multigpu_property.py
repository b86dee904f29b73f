"""Hypothesis property tests for the multi-GPU partitioner and scheduler.

The scheduler is ``repro.core.transfers.schedule_transfers`` given the
partition as a device column and one capacity per device.

Three families of invariants over random layered graphs, device counts,
policies and transfer modes:

* partitioner soundness — every operator assigned exactly one valid
  device, modeled costs add up, no device starves while work remains;
* plan residency — an independent replay (not ``validate_plan``) checks
  that every step only touches data resident on its own device and that
  per-device peak residency never exceeds ``usable_memory_floats``;
* Belady optimality — an eviction under ``policy="belady"`` never picks
  a buffer whose next use on that device comes sooner than another
  evictable resident buffer's (in particular, never the next-used one).
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import schedule_transfers
from repro.core.plan import (
    CopyToCPU,
    CopyToGPU,
    ExecutionPlan,
    Free,
    Launch,
    PeerCopy,
    validate_plan,
)
from repro.core.scheduling import dfs_schedule
from repro.gpusim import GpuDevice, homogeneous_group
from repro.multigpu import partition_graph
from repro.gpusim import CostModel
from repro.multigpu.partition import modeled_op_cost

from .differential import random_operator_graph

KB = 1024

graph_seeds = st.integers(min_value=0, max_value=10_000)
device_counts = st.integers(min_value=1, max_value=4)
policies = st.sampled_from(["belady", "ltu", "lru", "fifo"])
modes = st.sampled_from(["peer", "staged"])


def _setup(seed: int, n: int, *, headroom: float = 2.0):
    """A random graph plus a device group every op fits on."""
    graph = random_operator_graph(seed)
    footprint = max(
        sum(
            graph.data[d].size
            for d in set(op.inputs) | set(op.outputs)
        )
        for op in graph.ops.values()
    )
    # memory_reserve shaves planner-visible capacity; size the raw
    # memory so usable_memory_floats lands near footprint * headroom.
    dev = GpuDevice(name="prop-dev", memory_bytes=64 * KB)
    want = int(footprint * headroom)
    dev = dev.with_memory(int(want * 4 / dev.memory_reserve) + 4 * KB)
    group = homogeneous_group(dev, n)
    order = dfs_schedule(graph)
    part = partition_graph(graph, order, group)
    return graph, group, order, part


def _schedule(graph, order, group, part, **kw) -> ExecutionPlan:
    """Plan a device group: the partition as an op-id-indexed column."""
    return schedule_transfers(
        graph, order, group.usable_memory_floats,
        op_device=[part.device_of(o) for o in graph.ops], **kw,
    )


def _replay(plan: ExecutionPlan, graph, num_devices: int) -> list[int]:
    """Independent plan interpreter: asserts residency, returns peaks."""
    resident = [dict() for _ in range(num_devices)]
    host = {d for d, ds in graph.data.items() if ds.is_input and not ds.virtual}
    used = [0] * num_devices
    peak = [0] * num_devices
    for i, step in enumerate(plan.steps):
        dev = plan.device_of(i)
        if isinstance(step, CopyToGPU):
            assert step.data in host, (
                f"step {i}: upload of {step.data!r} with no valid host copy"
            )
            resident[dev][step.data] = graph.data[step.data].size
        elif isinstance(step, PeerCopy):
            assert step.src != step.dst
            assert 0 <= step.src < num_devices
            assert step.dst == dev
            assert step.data in resident[step.src], (
                f"step {i}: peer copy of {step.data!r} not on gpu{step.src}"
            )
            assert step.data not in resident[step.dst]
            resident[dev][step.data] = graph.data[step.data].size
        elif isinstance(step, CopyToCPU):
            assert step.data in resident[dev], (
                f"step {i}: download of {step.data!r} not on gpu{dev}"
            )
            host.add(step.data)
        elif isinstance(step, Launch):
            op = graph.ops[step.op]
            for d in op.inputs:
                assert d in resident[dev], (
                    f"step {i}: {step.op!r} reads {d!r} absent from gpu{dev}"
                )
            for d in op.outputs:
                resident[dev][d] = graph.data[d].size
                host.discard(d)
        elif isinstance(step, Free):
            assert step.data in resident[dev], (
                f"step {i}: free of {step.data!r} not on gpu{dev}"
            )
            del resident[dev][step.data]
        used[dev] = sum(resident[dev].values())
        peak[dev] = max(peak[dev], used[dev])
    for dev in range(num_devices):
        assert not resident[dev], f"gpu{dev} not drained: {sorted(resident[dev])}"
    return peak


class TestPartitioner:
    @settings(max_examples=40, deadline=None)
    @given(seed=graph_seeds, n=device_counts)
    def test_total_assignment(self, seed, n):
        graph, group, order, part = _setup(seed, n)
        assert set(part.assignment) == set(graph.ops)
        assert all(0 <= d < n for d in part.assignment.values())
        assert part.num_devices <= n

    @settings(max_examples=40, deadline=None)
    @given(seed=graph_seeds, n=device_counts)
    def test_costs_add_up(self, seed, n):
        graph, group, order, part = _setup(seed, n)
        cost = CostModel(group[0])
        total = sum(modeled_op_cost(graph, o, cost) for o in graph.ops)
        assert abs(sum(part.device_costs) - total) < 1e-9 * max(total, 1.0)
        assert part.imbalance >= 1.0 - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=graph_seeds, n=device_counts)
    def test_no_device_starves(self, seed, n):
        graph, group, order, part = _setup(seed, n)
        if len(graph.ops) >= n:
            for dev in range(n):
                assert part.ops_on(dev), f"device {dev} got no operators"


class TestResidency:
    @settings(max_examples=40, deadline=None)
    @given(seed=graph_seeds, n=device_counts, policy=policies, mode=modes)
    def test_replay_and_validate(self, seed, n, policy, mode):
        graph, group, order, part = _setup(seed, n)
        plan = _schedule(
            graph, order, group, part, policy=policy, transfer_mode=mode
        )
        caps = group.usable_memory_floats
        validate_plan(plan, graph, caps)
        peaks = _replay(plan, graph, n)
        for dev, peak in enumerate(peaks):
            assert peak <= caps[dev], (
                f"gpu{dev} peak {peak} floats exceeds capacity {caps[dev]}"
            )
        if mode == "staged":
            assert not any(isinstance(s, PeerCopy) for s in plan.steps)

    @settings(max_examples=20, deadline=None)
    @given(seed=graph_seeds, n=st.integers(min_value=2, max_value=4))
    def test_lazy_free_still_valid(self, seed, n):
        graph, group, order, part = _setup(seed, n)
        plan = _schedule(graph, order, group, part, eager_free=False)
        validate_plan(plan, graph, group.usable_memory_floats)
        _replay(plan, graph, n)


def _check_belady(plan: ExecutionPlan, graph, part, num_devices: int) -> int:
    """Assert every Belady eviction is furthest-next-use; count them.

    The plan's notes mark forced evictions; at each one we recompute
    every evictable buffer's next use on that device and require the
    victim to be maximal — so the buffer the device needs next is never
    the one thrown out.
    """
    launches = [
        (i, s.op) for i, s in enumerate(plan.steps) if isinstance(s, Launch)
    ]
    pos_of_step = {}  # step index -> upcoming launch position
    t = 0
    for i, _step in enumerate(plan.steps):
        pos_of_step[i] = t
        if t < len(launches) and launches[t][0] == i:
            t += 1

    def next_use_on(dev: int, data: str, t0: int) -> float:
        for tt in range(t0, len(launches)):
            op = graph.ops[launches[tt][1]]
            if part.device_of(launches[tt][1]) == dev and data in op.inputs:
                return tt
        return float("inf")

    resident = [set() for _ in range(num_devices)]
    checked = 0
    for i, step in enumerate(plan.steps):
        dev = plan.device_of(i)
        if isinstance(step, (CopyToGPU, PeerCopy)):
            resident[dev].add(step.data)
        elif isinstance(step, Launch):
            resident[dev].update(graph.ops[step.op].outputs)
        elif isinstance(step, Free):
            note = plan.notes[i] if i < len(plan.notes) else ""
            t0 = pos_of_step[i]
            if note.startswith("evicted: policy=belady") and t0 < len(launches):
                up = graph.ops[launches[t0][1]]
                pinned = set(up.inputs) | set(up.outputs)
                victim_nxt = next_use_on(dev, step.data, t0)
                for other in resident[dev] - {step.data} - pinned:
                    assert victim_nxt >= next_use_on(dev, other, t0), (
                        f"step {i}: belady evicted {step.data!r} "
                        f"(next use {victim_nxt}) over {other!r} "
                        f"(next use {next_use_on(dev, other, t0)})"
                    )
                checked += 1
            resident[dev].discard(step.data)
    return checked


class TestBelady:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=graph_seeds,
        n=device_counts,
        mode=modes,
        headroom=st.floats(min_value=1.05, max_value=1.6),
    )
    def test_never_evicts_next_used(self, seed, n, mode, headroom):
        """Random graphs: tight headroom forces occasional evictions."""
        graph, group, order, part = _setup(seed, n, headroom=headroom)
        plan = _schedule(
            graph, order, group, part, policy="belady", transfer_mode=mode
        )
        _check_belady(plan, graph, part, n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_under_heavy_pressure(self, n):
        """The split edge template at tight capacity evicts constantly."""
        from repro.core.splitting import make_feasible
        from repro.templates import find_edges_graph

        graph = find_edges_graph(64, 64, 5, 4)
        footprint = graph.total_data_size()
        cap = footprint // 6
        make_feasible(graph, cap // 2)
        dev = GpuDevice(name="prop-dev", memory_bytes=64 * KB)
        dev = dev.with_memory(int(cap * 4 / dev.memory_reserve) + 4 * KB)
        group = homogeneous_group(dev, n)
        order = dfs_schedule(graph)
        part = partition_graph(graph, order, group)
        plan = _schedule(graph, order, group, part)
        validate_plan(plan, graph, group.usable_memory_floats)
        checked = _check_belady(plan, graph, part, n)
        assert checked > 0, "expected real eviction pressure in this config"
