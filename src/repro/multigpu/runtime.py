"""Coordinated execution of device-tagged plans on N simulated GPUs.

:class:`MultiSimRuntime` owns one :class:`~repro.gpusim.SimRuntime` per
device of a :class:`~repro.gpusim.DeviceGroup` (each with its own clock
and profiler timeline) plus the state that coordinates them: the shared
bus and when each host copy became available.  The step loops are
:mod:`repro.runtime.executor`'s — the same ones that run a single device
as their N = 1 case — so multi-GPU execution inherits the residency
machine's checks, the allocator's capacity enforcement, kernel costs,
thrashing and numeric checkability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.graph import OperatorGraph
from repro.core.plan import ExecutionPlan
from repro.gpusim import DeviceGroup, HostSystem, SharedBus, SimRuntime
from repro.gpusim.profiler import Profile
from repro.runtime.executor import execute_steps, simulate_steps


class MultiSimRuntime:
    """N simulated GPU contexts behind one host."""

    def __init__(self, group: DeviceGroup, host: HostSystem | None = None) -> None:
        self.group = group
        self.host = host
        self.runtimes = [SimRuntime(d, host) for d in group.devices]
        self.bus = SharedBus() if group.shared_bus else None
        #: time each host copy became available (staged-transfer ordering)
        self.host_avail: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self.runtimes)

    def __getitem__(self, i: int) -> SimRuntime:
        return self.runtimes[i]

    @property
    def clock(self) -> float:
        """Aggregate elapsed time: the slowest device's clock (makespan)."""
        return max(rt.clock for rt in self.runtimes)

    @property
    def thrashed(self) -> bool:
        return any(rt.thrashed for rt in self.runtimes)


@dataclass
class MultiExecutionResult:
    """Outcome of a numeric multi-device plan execution."""

    outputs: dict[str, np.ndarray]
    elapsed: float
    num_devices: int
    h2d_floats: int
    d2h_floats: int
    peer_floats: int
    thrashed: bool
    #: per-device simulated timelines, index = device
    profiles: list[Profile] = field(default_factory=list)
    #: per-device finish times (the makespan is their max)
    device_clocks: list[float] = field(default_factory=list)

    @property
    def transfer_floats(self) -> int:
        """Host<->device volume only — comparable to single-device plans."""
        return self.h2d_floats + self.d2h_floats

    def bytes_transferred(self) -> int:
        """Recorded host<->device bytes across every device's timeline."""
        return sum(p.bytes_transferred() for p in self.profiles)

    def peer_bytes(self) -> int:
        """Physical device-to-device bytes (destination side, counted once)."""
        return sum(p.peer_bytes_in() for p in self.profiles)


def execute_multi_plan(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    mrt: MultiSimRuntime,
    template_inputs: Mapping[str, np.ndarray],
) -> MultiExecutionResult:
    """Run a device-tagged plan with real payloads, each device within
    its own capacity (the plan records only the group's smallest)."""
    outputs = execute_steps(
        plan, graph, mrt.runtimes, template_inputs, mrt.group,
        mrt.group.usable_memory_floats, bus=mrt.bus, host_avail=mrt.host_avail,
    )
    return MultiExecutionResult(
        outputs=outputs, elapsed=mrt.clock, num_devices=len(mrt),
        h2d_floats=plan.h2d_floats(graph), d2h_floats=plan.d2h_floats(graph),
        peer_floats=plan.peer_floats(graph), thrashed=mrt.thrashed,
        profiles=[rt.profile for rt in mrt.runtimes],
        device_clocks=[rt.clock for rt in mrt.runtimes],
    )


@dataclass
class MultiSimulatedRun:
    """Analytic timing of a multi-device plan."""

    total_time: float
    num_devices: int
    device_times: list[float]
    transfer_time: float
    compute_time: float
    peer_time: float
    h2d_floats: int
    d2h_floats: int
    peer_floats: int
    launches: int
    peak_device_floats: list[int]
    thrashed: bool

    @property
    def transfer_floats(self) -> int:
        return self.h2d_floats + self.d2h_floats

    def speedup_vs(self, single_time: float) -> float:
        """Aggregate speedup against a single-device total time."""
        return single_time / self.total_time if self.total_time else 0.0


def simulate_multi_plan(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    group: DeviceGroup,
    host: HostSystem | None = None,
) -> MultiSimulatedRun:
    """Walk a device-tagged plan analytically against the group cost model."""
    caps = group.usable_memory_floats  # each device's own, as compile_multi planned
    run, clocks, peak, peer_time, peer = simulate_steps(plan, graph, group, caps, host)
    return MultiSimulatedRun(
        total_time=run.total_time, num_devices=len(group), device_times=clocks,
        transfer_time=run.transfer_time, compute_time=run.compute_time,
        peer_time=peer_time, h2d_floats=run.h2d_floats, d2h_floats=run.d2h_floats,
        peer_floats=peer, launches=run.launches, peak_device_floats=peak,
        thrashed=run.thrashed,
    )
