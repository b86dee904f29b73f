"""Synchronous execution of plans on one to N simulated devices.

The two synchronous step loops, observers on the residency machine
(:mod:`repro.core.walk`): a bad plan fails with its ``PlanError`` at the
first bad step.  Each walks a device-tagged plan (an untagged plan runs
on device 0) over one clock per device and reports the *makespan*, the
slowest clock; one device is the N = 1 case:

* :func:`execute_steps`, behind :func:`execute_plan` — real numpy
  payloads on :class:`~repro.gpusim.SimRuntime` contexts.  The device's
  capacity is *enforced by the allocator*, so a plan made for a bigger
  device fails exactly like it would on hardware; outputs are
  comparable to the host reference.
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
from typing import Mapping, Sequence

import numpy as np

from repro.core.graph import OperatorGraph, op_slots
from repro.core.plan import ExecutionPlan
from repro.core.walk import Observer, Residency
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
    caps: Sequence[int],
    *,
    bus: SharedBus | None = None,
    host_avail: dict[str, float] | None = None,
) -> dict[str, np.ndarray]:
    """The numeric step loop; returns the assembled template outputs.

    ``runtimes[i]`` runs device ``i`` of ``group`` within ``caps[i]``.
    ``bus`` and ``host_avail`` are coordination state the caller may keep.
    """
    host: dict[str, np.ndarray] = {}
    data = graph.data
    avail = {} if host_avail is None else host_avail
    inputs_bytes = sum(np.asarray(a).size * FLOAT_BYTES for a in template_inputs.values())
    copies = 0  # bytes of downloaded intermediates the host keeps

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
        rt.malloc(name, data[name].size * FLOAT_BYTES)
        rt.write_device(name, array)

    def h2d(i: int, dev: int, name: str, size: int) -> None:
        rt = runtimes[dev]
        arr = host.get(name)
        if arr is None:  # the machine admits a saved copy or a template input
            arr = host[name] = input_chunk_array(graph, name, template_inputs)
        rt.clock = max(rt.clock, avail.get(name, 0.0))
        rt.malloc(name, arr.size * FLOAT_BYTES)
        over_bus(rt, lambda: rt.memcpy_h2d(name, arr))

    def d2h(i: int, dev: int, name: str, size: int) -> None:
        nonlocal copies
        rt = runtimes[dev]
        arr = over_bus(rt, lambda: rt.memcpy_d2h(name))
        avail[name] = max(avail.get(name, 0.0), rt.clock)
        if not data[name].is_input:
            old = host.get(name)
            copies += (arr.size - (0 if old is None else old.size)) * FLOAT_BYTES
            for r in runtimes:
                r.host_working_set = inputs_bytes + copies
        host[name] = arr

    def p2p(i: int, name: str, s: int, d: int, size: int) -> None:
        src, dst = runtimes[s], runtimes[d]
        array = src.read_device(name)
        nbytes = array.size * FLOAT_BYTES
        dst.malloc(name, nbytes)
        dst.write_device(name, array)
        dt = group.peer_time(nbytes)
        begin = max(src.clock, dst.clock)
        for side, label in ((src, f"->gpu{d}"), (dst, f"<-gpu{s}")):
            side.profile.record(Event(EventKind.P2P, name + label, begin, dt, nbytes))
        src.clock = dst.clock = begin + dt

    def free(i: int, dev: int, name: str, size: int) -> None:
        runtimes[dev].free(name)

    def launch(i: int, dev: int, op) -> None:
        rt = runtimes[dev]
        impl = get_impl(op.kind)
        ins = [gather_slot(graph, s, rt.read_device) for s in op_slots(op, graph)]
        scatter_outputs(graph, op, impl.execute(op, ins), partial(put, rt))
        rt.launch(op.name, *launch_cost(op, graph))

    for rt in runtimes:
        rt.host_working_set = inputs_bytes
    Residency(graph, caps).walk(plan, Observer(h2d=h2d, d2h=d2h, p2p=p2p, free=free, launch=launch))
    return {
        name: assemble_root(graph, name, lambda n: host[n])
        for name, ds in data.items()
        if ds.is_output and ds.parent is None
    }


def execute_plan(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    runtime: SimRuntime,
    template_inputs: Mapping[str, np.ndarray],
) -> ExecutionResult:
    """Run a plan on the simulated device with real payloads."""
    group, caps = DeviceGroup((runtime.device,)), [plan.capacity_floats]
    outputs = execute_steps(plan, graph, [runtime], template_inputs, group, caps)
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
    caps: Sequence[int],
    host: HostSystem | None = None,
    record_events: bool = False,
) -> tuple[SimulatedRun, list[float], list[int], float, int]:
    """The sizes-only step loop, against the group's cost model, device
    ``i`` within ``caps[i]``.

    Returns the aggregate run plus what only N devices add: per-device
    clocks and peak footprints, peer-copy seconds and peer floats.
    """
    costs = [CostModel(d, host) for d in group.devices]
    bus = SharedBus() if group.shared_bus else None
    data, consumers, steps, sizes = graph.data, graph.consumers, plan.steps, graph.data_sizes()
    machine = Residency(graph, caps)
    executed = machine.executed
    inputs_bytes = FLOAT_BYTES * sum(sizes[d] for d in machine.on_host)  # template inputs
    copies = 0  # bytes of live host copies of intermediates
    live: dict[str, int] = {}
    # A host copy of an intermediate dies after the later of the next
    # launch and the last launch that reads it.
    retire_next: list[str] = []  # every reader has run
    awaiting: dict[str, int] = {}  # readers still to run
    host_avail: dict[str, float] = {}
    clocks = [0.0] * len(group)
    transfer_time = compute_time = peer_time = 0.0
    h2d_floats = d2h_floats = peer = 0
    peak_host = inputs_bytes
    thrashed = False
    events: list[tuple[str, float]] = []

    def host_transfer(dev: int, nfloats: int) -> float:
        nonlocal thrashed, transfer_time
        dt = costs[dev].transfer_time_floats(nfloats)
        if costs[dev].thrashing(inputs_bytes + copies):
            thrashed = True
            dt *= host.paging_penalty
        if bus is None:
            clocks[dev] += dt
        else:
            clocks[dev] = bus.acquire(clocks[dev], dt)[1]
        transfer_time += dt
        return dt

    def h2d(i: int, dev: int, name: str, size: int) -> float:
        nonlocal h2d_floats
        clocks[dev] = max(clocks[dev], host_avail.get(name, 0.0))
        h2d_floats += size
        return host_transfer(dev, size)

    def d2h(i: int, dev: int, name: str, size: int) -> float:
        nonlocal d2h_floats, copies, peak_host
        dt = host_transfer(dev, size)
        d2h_floats += size
        host_avail[name] = max(host_avail.get(name, 0.0), clocks[dev])
        ds = data[name]
        if not ds.is_input:
            copies += size * FLOAT_BYTES - live.get(name, 0)
            live[name] = size * FLOAT_BYTES
            peak_host = max(peak_host, inputs_bytes + copies)
            if not ds.is_output:
                left = sum(c not in executed for c in consumers[name])
                if left:
                    awaiting[name] = left
                else:
                    retire_next.append(name)
        return dt

    def p2p(i: int, name: str, src: int, dst: int, size: int) -> float:
        nonlocal peer_time, peer
        dt = group.peer_time(size * FLOAT_BYTES)
        clocks[src] = clocks[dst] = max(clocks[src], clocks[dst]) + dt
        peer_time += dt
        peer += size
        return dt

    def launch(i: int, dev: int, op) -> float:
        nonlocal compute_time, copies
        dt = costs[dev].kernel_time(*launch_cost(op, graph))
        clocks[dev] += dt
        compute_time += dt
        for d in retire_next:
            copies -= live.pop(d, 0)
        retire_next.clear()
        for d in op.inputs:
            left = awaiting.get(d)
            if left == 1:
                del awaiting[d]
                copies -= live.pop(d, 0)
            elif left:
                awaiting[d] = left - 1
        return dt

    hooks = {"h2d": h2d, "d2h": d2h, "p2p": p2p, "launch": launch, "free": None}
    if record_events:
        def recorded(hook):
            return lambda i, *args: events.append((str(steps[i]), hook(i, *args) if hook else 0.0))

        hooks = {name: recorded(hook) for name, hook in hooks.items()}
    machine.walk(plan, Observer(**hooks))
    run = SimulatedRun(
        total_time=max(clocks), transfer_time=transfer_time, compute_time=compute_time,
        h2d_floats=h2d_floats, d2h_floats=d2h_floats, launches=len(executed),
        peak_device_floats=max(machine.peak), peak_host_bytes=peak_host,
        thrashed=thrashed, events=events,
    )
    return run, clocks, machine.peak, peer_time, peer


def simulate_plan(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    device: GpuDevice,
    host: HostSystem | None = None,
    *,
    record_events: bool = False,
) -> SimulatedRun:
    """Walk a plan analytically against the device/host cost model."""
    caps = [plan.capacity_floats]  # the capacity the plan was made for
    return simulate_steps(plan, graph, DeviceGroup((device,)), caps, host, record_events)[0]
