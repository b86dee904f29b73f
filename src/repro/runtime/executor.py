"""Synchronous execution of plans on one to N simulated devices.

The two synchronous step loops.  Each walks a device-tagged plan (an
untagged plan runs on device 0) over one clock per device and reports
the *makespan*, the slowest clock; one device is the N = 1 case:

* :func:`execute_steps`, behind :func:`execute_plan` — real numpy
  payloads on :class:`~repro.gpusim.SimRuntime` contexts.  Capacity is
  *enforced by the allocator*, so an over-committing plan fails exactly
  like it would on hardware; outputs are comparable to the host reference.
* :func:`simulate_steps`, behind :func:`simulate_plan` — sizes only, for
  paper-scale workloads (the Table 1/2 configurations reach 17 GB
  footprints, which we account but never materialise).

``repro.multigpu``'s ``execute_multi_plan`` / ``simulate_multi_plan``
enter the same loops.  Three rules only bite with N > 1: a staged upload
starts no earlier than the download that published its host copy
(``host_avail``); a ``PeerCopy`` begins at ``max(src, dst)`` clock and
advances both to its end; on a ``shared_bus`` group each host<->device
copy waits for the previous one (:class:`~repro.gpusim.SharedBus`).

The host working set (template inputs + live host copies of
intermediates) is a running total.  Once it exceeds host RAM, transfers
pay the paging penalty and the run is flagged ``thrashed`` (the paper's
"inconsistent results ... thrashing effects in main memory").  The
numeric loop keeps every downloaded intermediate live; the sizes loop
retires a copy after the launch that last reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from repro.core.graph import OperatorGraph, op_slots
from repro.core.plan import CopyToCPU, CopyToGPU, ExecutionPlan, Free, Launch, PeerCopy
from repro.gpusim import (
    FLOAT_BYTES, CostModel, DeviceGroup, GpuDevice, HostSystem, SharedBus, SimRuntime,
)
from repro.gpusim.profiler import Event, EventKind, Profile
from repro.obs.provenance import provenance_summary
from repro.ops import get_impl, launch_cost

from .assemble import assemble_root, gather_slot, input_chunk_array, scatter_outputs


@dataclass
class ExecutionResult:
    """Outcome of a numeric plan execution."""

    outputs: dict[str, np.ndarray]
    elapsed: float
    transfer_time: float
    compute_time: float
    h2d_floats: int
    d2h_floats: int
    thrashed: bool
    #: the full simulated-device event timeline (Chrome-trace exportable)
    profile: Profile | None = None
    #: metrics snapshot: runtime/allocator counters plus plan provenance
    metrics: dict[str, object] = field(default_factory=dict)

    @property
    def transfer_floats(self) -> int:
        return self.h2d_floats + self.d2h_floats


def execute_steps(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    runtimes: Sequence[SimRuntime],
    template_inputs: Mapping[str, np.ndarray],
    group: DeviceGroup,
    *,
    bus: SharedBus | None = None,
    host_avail: dict[str, float] | None = None,
) -> dict[str, np.ndarray]:
    """The numeric step loop; returns the assembled template outputs.

    ``runtimes[i]`` runs device ``i`` of ``group``.  ``bus`` and
    ``host_avail`` are coordination state the caller may keep.
    """
    host: dict[str, np.ndarray] = {}
    avail = {} if host_avail is None else host_avail
    inputs_bytes = sum(np.asarray(a).size * FLOAT_BYTES for a in template_inputs.values())
    copies = 0  # bytes of downloaded intermediates the host keeps

    def host_fetch(name: str) -> np.ndarray:
        if name not in host:
            if not graph.data[name].is_input:
                raise KeyError(f"host read of {name!r} before it was saved")
            host[name] = input_chunk_array(graph, name, template_inputs)
        return host[name]

    def over_bus(rt: SimRuntime, copy):
        """Run one host<->device copy, serialized over the shared bus."""
        if bus is None:
            return copy()
        rt.clock = max(rt.clock, bus.busy_until)
        before = rt.clock
        out = copy()
        bus.busy_until = rt.clock
        bus.total_busy += rt.clock - before
        return out

    def put(rt: SimRuntime, name: str, array: np.ndarray) -> None:
        rt.malloc(name, graph.data[name].size * FLOAT_BYTES)
        rt.write_device(name, array)

    for rt in runtimes:
        rt.host_working_set = inputs_bytes
    for step, dev in zip(plan.steps, plan.devices or repeat(0)):
        rt = runtimes[dev]
        if isinstance(step, CopyToGPU):
            name = step.data
            arr = host_fetch(name)
            rt.clock = max(rt.clock, avail.get(name, 0.0))
            rt.malloc(name, arr.size * FLOAT_BYTES)
            over_bus(rt, lambda: rt.memcpy_h2d(name, arr))
        elif isinstance(step, CopyToCPU):
            name = step.data
            arr = over_bus(rt, lambda: rt.memcpy_d2h(name))
            avail[name] = max(avail.get(name, 0.0), rt.clock)
            if not graph.data[name].is_input:
                old = host.get(name)
                copies += (arr.size - (0 if old is None else old.size)) * FLOAT_BYTES
                for r in runtimes:
                    r.host_working_set = inputs_bytes + copies
            host[name] = arr
        elif isinstance(step, PeerCopy):
            src, dst = runtimes[step.src], runtimes[step.dst]
            array = src.read_device(step.data)
            nbytes = array.size * FLOAT_BYTES
            dst.malloc(step.data, nbytes)
            dst.write_device(step.data, array)
            dt = group.peer_time(nbytes)
            begin = max(src.clock, dst.clock)
            for side, label in ((src, f"->gpu{step.dst}"), (dst, f"<-gpu{step.src}")):
                side.profile.record(Event(EventKind.P2P, step.data + label, begin, dt, nbytes))
            src.clock = dst.clock = begin + dt
        elif isinstance(step, Free):
            rt.free(step.data)
        elif isinstance(step, Launch):
            op = graph.ops[step.op]
            impl = get_impl(op.kind)
            ins = [gather_slot(graph, s, rt.read_device) for s in op_slots(op, graph)]
            scatter_outputs(graph, op, impl.execute(op, ins), partial(put, rt))
            rt.launch(step.op, *launch_cost(op, graph))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown step {step!r}")
    return {
        name: assemble_root(graph, name, lambda n: host[n])
        for name, ds in graph.data.items()
        if ds.is_output and ds.parent is None
    }


def execute_plan(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    runtime: SimRuntime,
    template_inputs: Mapping[str, np.ndarray],
) -> ExecutionResult:
    """Run a validated plan on the simulated device with real payloads."""
    group = DeviceGroup((runtime.device,))
    outputs = execute_steps(plan, graph, [runtime], template_inputs, group)
    prof = runtime.profile
    metrics = getattr(runtime, "metrics", None)
    if metrics is not None:
        metrics.counter("exec.steps").inc(len(plan.steps))
        metrics.gauge("exec.elapsed_seconds").set(runtime.clock)
        for reason, count in provenance_summary(plan).items():
            metrics.counter(f"plan.reason.{reason}").inc(count)
    return ExecutionResult(
        outputs=outputs,
        elapsed=runtime.clock,
        transfer_time=prof.transfer_time,
        compute_time=prof.compute_time,
        h2d_floats=plan.h2d_floats(graph),
        d2h_floats=plan.d2h_floats(graph),
        thrashed=getattr(runtime, "thrashed", False),
        profile=prof,
        metrics=metrics.snapshot() if metrics is not None else {},
    )


# ---------------------------------------------------------------------------
# Analytic simulation (paper-scale workloads)
# ---------------------------------------------------------------------------
@dataclass
class SimulatedRun:
    """Analytic timing of a plan (no payloads materialised).

    ``total_time`` is the makespan, ``peak_device_floats`` the largest
    footprint of any one device.
    """

    total_time: float
    transfer_time: float
    compute_time: float
    h2d_floats: int
    d2h_floats: int
    launches: int
    peak_device_floats: int
    peak_host_bytes: int
    thrashed: bool
    #: the paper reports such runs as erratic / inconsistent (Table 2)
    events: list[tuple[str, float]] = field(default_factory=list)

    @property
    def transfer_floats(self) -> int:
        return self.h2d_floats + self.d2h_floats

    @property
    def inconsistent(self) -> bool:
        return self.thrashed

    def breakdown(self) -> dict[str, float]:
        busy = self.transfer_time + self.compute_time
        if busy == 0:
            return {"transfer": 0.0, "compute": 0.0}
        return {
            "transfer": self.transfer_time / busy,
            "compute": self.compute_time / busy,
        }


def simulate_steps(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    group: DeviceGroup,
    host: HostSystem | None = None,
    record_events: bool = False,
) -> tuple[SimulatedRun, list[float], list[int], float, int]:
    """The sizes-only step loop, against the group's cost model.

    Returns the aggregate run plus what only N devices add: per-device
    clocks and peak footprints, peer-copy seconds and peer floats.
    """
    n = len(group)
    costs = [CostModel(d, host) for d in group.devices]
    bus = SharedBus() if group.shared_bus else None
    data = graph.data
    last_read: dict[str, int] = {}  # data -> index of the last launch reading it
    t = 0
    for step in plan.steps:
        if isinstance(step, Launch):
            for d in graph.ops[step.op].inputs:
                last_read[d] = t
            t += 1

    inputs_bytes = sum(
        ds.size * FLOAT_BYTES for ds in data.values() if ds.is_input and not ds.virtual
    )
    copies = 0  # bytes of live host copies of intermediates
    live: dict[str, int] = {}
    retire: dict[int, list[str]] = {}  # launch index -> host copies dead once it ran
    host_avail: dict[str, float] = {}
    clocks = [0.0] * n
    resident: list[dict[str, int]] = [dict() for _ in range(n)]
    used = [0] * n
    peak = [0] * n
    transfer_time = compute_time = peer_time = 0.0
    h2d = d2h = peer = 0
    peak_host = inputs_bytes
    thrashed = False
    events: list[tuple[str, float]] = []

    def host_transfer(dev: int, nfloats: int) -> float:
        nonlocal thrashed
        dt = costs[dev].transfer_time_floats(nfloats)
        if costs[dev].thrashing(inputs_bytes + copies):
            thrashed = True
            dt *= host.paging_penalty
        if bus is None:
            clocks[dev] += dt
        else:
            clocks[dev] = bus.acquire(clocks[dev], dt)[1]
        return dt

    t = 0
    for step, dev in zip(plan.steps, plan.devices or repeat(0)):
        if isinstance(step, CopyToGPU):
            size = data[step.data].size
            clocks[dev] = max(clocks[dev], host_avail.get(step.data, 0.0))
            dt = host_transfer(dev, size)
            transfer_time += dt
            h2d += size
            resident[dev][step.data] = size
            used[dev] += size
            peak[dev] = max(peak[dev], used[dev])
        elif isinstance(step, CopyToCPU):
            name = step.data
            ds = data[name]
            dt = host_transfer(dev, ds.size)
            transfer_time += dt
            d2h += ds.size
            host_avail[name] = max(host_avail.get(name, 0.0), clocks[dev])
            if not ds.is_input:
                copies += ds.size * FLOAT_BYTES - live.get(name, 0)
                live[name] = ds.size * FLOAT_BYTES
                peak_host = max(peak_host, inputs_bytes + copies)
                if not ds.is_output:
                    # dies after the later of the next launch and its last read
                    retire.setdefault(max(t, last_read.get(name, -1)), []).append(name)
        elif isinstance(step, PeerCopy):
            size = data[step.data].size
            dt = group.peer_time(size * FLOAT_BYTES)
            begin = max(clocks[step.src], clocks[step.dst])
            clocks[step.src] = clocks[step.dst] = begin + dt
            peer_time += dt
            peer += size
            resident[step.dst][step.data] = size
            used[step.dst] += size
            peak[step.dst] = max(peak[step.dst], used[step.dst])
        elif isinstance(step, Free):
            used[dev] -= resident[dev].pop(step.data)
            dt = 0.0
        elif isinstance(step, Launch):
            op = graph.ops[step.op]
            dt = costs[dev].kernel_time(*launch_cost(op, graph))
            clocks[dev] += dt
            compute_time += dt
            for d in op.outputs:
                resident[dev][d] = data[d].size
                used[dev] += data[d].size
            peak[dev] = max(peak[dev], used[dev])
            for d in retire.pop(t, ()):
                copies -= live.pop(d, 0)
            t += 1
        if record_events:
            events.append((str(step), dt))
    run = SimulatedRun(
        total_time=max(clocks), transfer_time=transfer_time, compute_time=compute_time,
        h2d_floats=h2d, d2h_floats=d2h, launches=t, peak_device_floats=max(peak),
        peak_host_bytes=peak_host, thrashed=thrashed, events=events,
    )
    return run, clocks, peak, peer_time, peer


def simulate_plan(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    device: GpuDevice,
    host: HostSystem | None = None,
    *,
    record_events: bool = False,
) -> SimulatedRun:
    """Walk a plan analytically against the device/host cost model."""
    return simulate_steps(plan, graph, DeviceGroup((device,)), host, record_events)[0]
