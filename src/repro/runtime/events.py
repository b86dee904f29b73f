"""Discrete-event plan execution with explicit streams.

The synchronous executor (:func:`repro.runtime.executor.execute_plan`)
walks plan steps one at a time on a single simulated clock, so a plan's
elapsed time is the *sum* of its transfer and compute costs — exactly
the hardware limitation the paper worked under (Section 3.3.2: "We did
not overlap computation and communication in our experiments").

This module closes that gap: plan steps become dependency-tracked
**events** issued onto explicit streams — one compute engine plus copy
engines (one per transfer direction, or a single shared engine) — and
each event *fires when its predecessors complete*, not in serialized
plan order.  Firing an event performs its numeric work, so the engine
is a real executor: outputs are byte-identical to the synchronous path
(the same numpy operator impls see the same operands in dependency
order) while the recorded timeline genuinely overlaps.  The
timing-only run with one shared copy engine is the two-engine overlap
predictor (:func:`simulate_plan_overlap`).

Dependency model:

* a launch waits on the uploads of its inputs and on the previous
  launch (one in-order compute queue);
* a download of an operator's output waits for that launch;
* a re-upload of evicted data waits for the download that saved it;
* frees are host-side bookkeeping events that wait on every prior step
  touching the buffer — they cost nothing and gate nothing.

The residency machine (:mod:`repro.core.walk`) checks every step, in
plan order and against the plan's capacity, before it becomes an event.
Allocator-level fidelity (first-fit placement, compaction, fault
injection) stays with the synchronous executor; the differential matrix
pins this engine bitwise against it.

Invariants, asserted across the differential matrix, the overlap
benchmark gate and the oracle ``tests/reference_events.py``:

* outputs are byte-identical to :func:`execute_plan`;
* ``total_time <= sync_total_time`` (overlap never loses);
* every configuration fires the same events, in the same order, as the
  oracle's round-by-round loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Mapping

import numpy as np

from repro.core.graph import Operator, OperatorGraph, op_slots
from repro.core.plan import CopyToCPU, CopyToGPU, ExecutionPlan, Free, Launch, PeerCopy, Step
from repro.core.walk import HOOKS, Observer, Residency
from repro.gpusim import FLOAT_BYTES, CostModel, GpuDevice, HostSystem
from repro.gpusim.profiler import Event, EventKind, Profile
from repro.ops import get_impl, launch_cost

from .assemble import assemble_root, gather_slot, input_chunk_array, scatter_outputs

#: stream (engine) identifiers
COMPUTE = "compute"
H2D_STREAM = "h2d"
D2H_STREAM = "d2h"
SHARED_COPY = "copy"
HOST_STREAM = "host"

#: ``copy_streams`` modes: one DMA engine per direction (what current
#: hardware exposes) or a single shared copy engine (the
#: :func:`simulate_plan_overlap` hardware model).
COPY_STREAM_MODES = ("per-direction", "shared")


#: the engine each step type fires on; anything else runs host-side
_STREAMS = {Launch: COMPUTE, CopyToGPU: H2D_STREAM, CopyToCPU: D2H_STREAM, PeerCopy: "p2p"}


def step_stream(step: Step, *, copy_streams: str = "per-direction") -> str:
    """The stream a plan step fires on (static assignment).

    Launches always take the compute engine; transfers take the copy
    engine for their direction (or the shared engine); frees and other
    bookkeeping run host-side.  ``PeerCopy`` is labelled ``p2p`` — the
    multi-GPU executor owns those steps.
    """
    stream = _STREAMS.get(type(step), HOST_STREAM)
    if copy_streams == "shared" and stream in (H2D_STREAM, D2H_STREAM):
        return SHARED_COPY
    return stream


def plan_streams(plan: ExecutionPlan, *, copy_streams: str = "per-direction") -> list[str]:
    """Stream assignment per plan step (the ``repro explain`` column).

    Multi-device plans prefix each stream with its device
    (``gpu1:h2d``); ``PeerCopy`` names both endpoints.
    """
    out: list[str] = []
    multi = plan.num_devices > 1
    for i, step in enumerate(plan.steps):
        name = step_stream(step, copy_streams=copy_streams)
        if name == "p2p":
            out.append(f"gpu{step.src}->gpu{step.dst}:p2p")
        elif multi and name != HOST_STREAM:
            out.append(f"gpu{plan.device_of(i)}:{name}")
        else:
            out.append(name)
    return out


@dataclass(frozen=True)
class StreamEvent:
    """One fired plan step: where it ran and when."""

    index: int  # plan step index
    step: Step
    stream: str
    start: float
    finish: float
    deps: tuple[int, ...]

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class EventTimeline:
    """The executed (or simulated) stream timeline of one plan."""

    events: list[StreamEvent]
    total_time: float
    copy_busy: float
    compute_busy: float
    sync_total_time: float  # same plan, engines serialised
    copy_streams: str = "per-direction"
    in_order_copy: bool = False

    @property
    def hidden_transfer_time(self) -> float:
        """Transfer time overlapped behind computation."""
        return self.sync_total_time - self.total_time

    @property
    def speedup(self) -> float:
        return self.sync_total_time / self.total_time if self.total_time else 1.0

    @property
    def hidden_transfer_fraction(self) -> float:
        """Fraction of copy time hidden behind compute, in [0, 1]."""
        if self.copy_busy == 0:
            return 0.0
        return min(max(self.hidden_transfer_time / self.copy_busy, 0.0), 1.0)

    @property
    def exposed_transfer_fraction(self) -> float:
        """Fraction of copy time NOT hidden behind compute."""
        if self.copy_busy == 0:
            return 0.0
        exposed = max(self.total_time - self.compute_busy, 0.0)
        return min(exposed / self.copy_busy, 1.0)

    def by_stream(self) -> dict[str, list[StreamEvent]]:
        out: dict[str, list[StreamEvent]] = {}
        for ev in self.events:
            out.setdefault(ev.stream, []).append(ev)
        return out

    def stream_table(self) -> list[str]:
        """Stream per plan step index, aligned to the source plan."""
        table = [HOST_STREAM] * (max((e.index for e in self.events), default=-1) + 1)
        for ev in self.events:
            table[ev.index] = ev.stream
        return table


# ---------------------------------------------------------------------------
# Event graph construction
# ---------------------------------------------------------------------------
@dataclass
class _EventGraph:
    """Per plan step: duration, stream, dependencies and their reverse."""

    durations: list[float]
    deps: list[list[int]]
    users: list[list[int]]
    streams: list[str]
    compute_order: list[int] = field(default_factory=list)
    copy_queues: dict[str, list[int]] = field(default_factory=dict)


def _build_event_graph(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    cost: CostModel,
    *,
    copy_streams: str,
) -> _EventGraph:
    """Durations, dependency edges (both ways) and streams per plan step:
    a dependency observer on the residency machine."""
    if copy_streams not in COPY_STREAM_MODES:
        raise ValueError(
            f"copy_streams must be one of {COPY_STREAM_MODES}, "
            f"got {copy_streams!r}"
        )
    if plan.num_devices > 1:
        raise ValueError(
            "the event engine executes single-device plans; multi-device "
            "plans run through repro.multigpu"
        )
    n = len(plan.steps)
    copies = (SHARED_COPY,) if copy_streams == "shared" else (H2D_STREAM, D2H_STREAM)
    eg = _EventGraph([0.0] * n, [[] for _ in range(n)], [[] for _ in range(n)], [])
    eg.copy_queues = {name: [] for name in copies}
    last_upload: dict[str, int] = {}
    last_download: dict[str, int] = {}
    producer_launch: dict[str, int] = {}
    touched: dict[str, list[int]] = {}

    def event(i: int, stream: str, deps: list[int]) -> None:
        eg.streams.append(stream)
        eg.deps[i] = deps
        for d in deps:
            eg.users[d].append(i)

    def copy(i: int, stream: str, name: str, size: int, source: int | None) -> None:
        eg.durations[i] = cost.transfer_time_floats(size)
        eg.copy_queues[stream].append(i)
        touched.setdefault(name, []).append(i)
        event(i, stream, [] if source is None else [source])

    def h2d(i: int, dev: int, name: str, size: int) -> None:
        # Re-uploading evicted data needs the saving download done.
        copy(i, copies[0], name, size, last_download.get(name))
        last_upload[name] = i

    def d2h(i: int, dev: int, name: str, size: int) -> None:
        # A download needs the launch that produced the data.
        copy(i, copies[-1], name, size, producer_launch.get(name))
        last_download[name] = i

    def launch(i: int, dev: int, op: Operator) -> None:
        eg.durations[i] = cost.kernel_time(*launch_cost(op, graph))
        deps = [last_upload[x] for x in op.inputs if x in last_upload]
        if eg.compute_order:  # single in-order compute queue
            deps.append(eg.compute_order[-1])
        for x in op.outputs:
            producer_launch[x] = i
            last_upload.pop(x, None)  # device-born: no upload needed
            touched.setdefault(x, []).append(i)
        for x in op.inputs:
            touched.setdefault(x, []).append(i)
        eg.compute_order.append(i)
        event(i, COMPUTE, deps)

    def free(i: int, dev: int, name: str, size: int) -> None:
        # Host bookkeeping: fires after every prior touch of the buffer;
        # costs nothing; nothing depends on it.
        event(i, HOST_STREAM, list(touched.get(name, ())))

    observer = Observer(h2d=h2d, d2h=d2h, launch=launch, free=free)
    Residency(graph, [plan.capacity_floats]).walk(plan, observer)
    return eg


# ---------------------------------------------------------------------------
# The discrete-event loop
# ---------------------------------------------------------------------------
def _run_event_loop(
    plan: ExecutionPlan,
    eg: _EventGraph,
    *,
    in_order_copy: bool,
    fire: Callable[[int, Step, str, float, float], None] | None = None,
) -> EventTimeline:
    """Fire events onto their streams as dependencies complete.

    ``fire(index, step, stream, start, finish)`` is invoked the moment
    an event is issued — the numeric executor performs the step's work
    there, so execution order *is* the dependency order, not plan order.

    The loop runs in rounds.  Each round the compute engine issues its
    next launch in plan order if it is ready; then each copy engine
    issues one ready transfer — the lowest-index one that can start the
    moment the engine is free, else the one that can start earliest
    (out-of-order issue past blocked downloads), or only its FIFO head
    with ``in_order_copy``; then every free that became ready fires, in
    plan order.  An event's unmet dependencies are counted down as its
    predecessors issue, so each event is issued once and each edge
    decremented once.
    """
    steps, durations, deps, users, streams = (
        plan.steps, eg.durations, eg.deps, eg.users, eg.streams
    )
    n = len(durations)
    ready_at = [0.0] * n  # latest finish among an event's dependencies
    unmet = [len(d) for d in deps]
    clocks: dict[str, float] = {name: 0.0 for name in eg.copy_queues}
    clocks[COMPUTE] = 0.0
    heads = dict.fromkeys(eg.copy_queues, 0)  # in_order_copy FIFO heads
    # Ready transfers per copy engine: those that must wait for a
    # dependency past the engine's clock, keyed (ready time, index), and
    # those that could start now, keyed by index.
    later: dict[str, list[tuple[float, int]]] = {s: [] for s in eg.copy_queues}
    now: dict[str, list[int]] = {s: [] for s in eg.copy_queues}
    frees: list[int] = []
    fired: list[StreamEvent] = []
    copy_busy = sum(durations[i] for q in eg.copy_queues.values() for i in q)
    compute_busy = sum(durations[i] for i in eg.compute_order)

    def became_ready(i: int) -> None:
        stream = streams[i]
        if stream == HOST_STREAM:
            frees.append(i)
        elif stream != COMPUTE and not in_order_copy:
            heappush(later[stream], (ready_at[i], i))

    def issue(i: int, stream: str, start: float) -> float:
        end = start + durations[i]
        fired.append(StreamEvent(i, steps[i], stream, start, end, tuple(deps[i])))
        if fire is not None:
            fire(i, steps[i], stream, start, end)
        for u in users[i]:
            if end > ready_at[u]:
                ready_at[u] = end
            unmet[u] -= 1
            if not unmet[u]:
                became_ready(u)
        return end

    for i in range(n):
        if not unmet[i]:
            became_ready(i)
    next_compute = 0
    while len(fired) < n:
        fired_before = len(fired)
        # Compute engine: strict plan order.
        if next_compute < len(eg.compute_order):
            i = eg.compute_order[next_compute]
            if not unmet[i]:
                clocks[COMPUTE] = issue(i, COMPUTE, max(clocks[COMPUTE], ready_at[i]))
                next_compute += 1
        for stream, queue in eg.copy_queues.items():
            clock = clocks[stream]
            if in_order_copy:
                k = heads[stream]
                if k == len(queue) or unmet[queue[k]]:
                    continue
                heads[stream] = k + 1
                i = queue[k]
            else:
                waiting, startable = later[stream], now[stream]
                while waiting and waiting[0][0] <= clock:
                    heappush(startable, heappop(waiting)[1])
                if startable:
                    i = heappop(startable)
                elif waiting:
                    i = heappop(waiting)[1]
                else:
                    continue
            clocks[stream] = issue(i, stream, max(clock, ready_at[i]))
        # Host stream: frees fire as soon as their last toucher is done.
        frees.sort()
        for i in frees:
            issue(i, HOST_STREAM, ready_at[i])
        frees.clear()
        if len(fired) == fired_before:  # pragma: no cover - defensive
            raise RuntimeError("event engine deadlocked (cyclic dependencies?)")
    total = max(clocks.values(), default=0.0)
    return EventTimeline(
        events=fired,
        total_time=total,
        copy_busy=copy_busy,
        compute_busy=compute_busy,
        sync_total_time=copy_busy + compute_busy,
        in_order_copy=in_order_copy,
    )


def simulate_plan_events(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    device: GpuDevice,
    host: HostSystem | None = None,
    *,
    copy_streams: str = "per-direction",
    in_order_copy: bool = False,
) -> EventTimeline:
    """Timing-only run of the event engine (no payloads materialised).

    The per-direction default can only be faster than one shared copy
    engine (independent uploads and downloads no longer contend for one
    DMA engine) and never slower than the synchronous walk.
    """
    cost = CostModel(device, host)
    eg = _build_event_graph(plan, graph, cost, copy_streams=copy_streams)
    timeline = _run_event_loop(plan, eg, in_order_copy=in_order_copy)
    timeline.copy_streams = copy_streams
    return timeline


def simulate_plan_overlap(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    device: GpuDevice,
    host: HostSystem | None = None,
    *,
    in_order_copy: bool = False,
) -> EventTimeline:
    """Two-engine overlap prediction: one compute and one copy engine.

    ``in_order_copy=True`` models a copy stream fed in plan order, where
    :func:`repro.core.planopt.hoist_uploads` pays off; the default
    models out-of-order issue across streams.
    """
    return simulate_plan_events(
        plan, graph, device, host, copy_streams="shared", in_order_copy=in_order_copy
    )


# ---------------------------------------------------------------------------
# Numeric execution on the event engine
# ---------------------------------------------------------------------------
@dataclass
class EventExecutionResult:
    """Outcome of one plan executed on the discrete-event engine."""

    outputs: dict[str, np.ndarray]
    timeline: EventTimeline
    #: overlapping stream timeline, Chrome-trace exportable; event start
    #: times are the *fired* times, so concurrent streams overlap
    profile: Profile
    h2d_floats: int
    d2h_floats: int

    @property
    def total_time(self) -> float:
        return self.timeline.total_time

    @property
    def sync_total_time(self) -> float:
        return self.timeline.sync_total_time

    @property
    def transfer_time(self) -> float:
        return self.timeline.copy_busy

    @property
    def compute_time(self) -> float:
        return self.timeline.compute_busy

    @property
    def hidden_transfer_time(self) -> float:
        return self.timeline.hidden_transfer_time

    @property
    def hidden_transfer_fraction(self) -> float:
        return self.timeline.hidden_transfer_fraction

    @property
    def speedup(self) -> float:
        return self.timeline.speedup

    @property
    def overlap_efficiency(self) -> float:
        """Overlap achieved / overlap possible, from the executed profile
        (:func:`repro.obs.analyze.timeline_stats`)."""
        from repro.obs.analyze import timeline_stats

        return timeline_stats(self.profile).overlap_efficiency

    def stream_profiles(self) -> list[tuple[str, Profile]]:
        """One named profile per stream, for per-stream Chrome-trace
        tracks (``write_chrome_trace(path, profiles=...)``)."""
        shared = self.timeline.copy_streams == "shared"
        by_stream: dict[str, Profile] = {}
        for ev in self.profile.events:
            stream = _KIND_STREAMS.get(ev.kind, HOST_STREAM)
            if shared and stream in (H2D_STREAM, D2H_STREAM):
                stream = SHARED_COPY
            by_stream.setdefault(stream, Profile()).record(ev)
        order = [COMPUTE, H2D_STREAM, D2H_STREAM, SHARED_COPY, HOST_STREAM]
        return [(name, by_stream[name]) for name in order if name in by_stream]


_KIND_STREAMS = {
    EventKind.KERNEL: COMPUTE,
    EventKind.H2D: H2D_STREAM,
    EventKind.D2H: D2H_STREAM,
}


def execute_plan_events(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    device: GpuDevice,
    template_inputs: Mapping[str, np.ndarray],
    host: HostSystem | None = None,
    *,
    copy_streams: str = "per-direction",
    in_order_copy: bool = False,
) -> EventExecutionResult:
    """Execute a plan on the discrete-event stream engine.

    Numeric work happens *inside* event firing: an upload materialises
    its host chunk onto the device store when the upload event fires, a
    launch gathers/computes/scatters when the compute engine reaches it,
    a download copies back when its producer has finished.  The recorded
    profile therefore carries genuinely overlapping start times — the
    executed timeline the paper's Section 3.3.2 extension describes.
    """
    cost = CostModel(device, host)
    eg = _build_event_graph(plan, graph, cost, copy_streams=copy_streams)
    # Device payloads, coerced as SimRuntime coerces them (contiguous
    # float32 on write, a copy on download): outputs stay byte-identical.
    resident: dict[str, np.ndarray] = {}
    hostmem: dict[str, np.ndarray] = {}
    profile = Profile()

    def h2d(step: CopyToGPU, start: float, end: float) -> None:
        arr = hostmem.get(step.data)
        if arr is None:  # the machine admitted a saved copy or a template input
            arr = hostmem[step.data] = input_chunk_array(graph, step.data, template_inputs)
        nbytes = arr.size * FLOAT_BYTES
        profile.record(Event(EventKind.ALLOC, step.data, start, 0.0, nbytes))
        profile.record(Event(EventKind.H2D, step.data, start, end - start, nbytes))
        resident[step.data] = np.ascontiguousarray(arr, dtype=np.float32)

    def d2h(step: CopyToCPU, start: float, end: float) -> None:
        arr = hostmem[step.data] = resident[step.data].copy()
        profile.record(
            Event(EventKind.D2H, step.data, start, end - start, arr.size * FLOAT_BYTES)
        )

    def launch(step: Launch, start: float, end: float) -> None:
        op = graph.ops[step.op]
        operands = [gather_slot(graph, s, resident.__getitem__) for s in op_slots(op, graph)]
        results = get_impl(op.kind).execute(op, operands)

        def put(name: str, array: np.ndarray) -> None:
            nbytes = graph.data[name].size * FLOAT_BYTES
            profile.record(Event(EventKind.ALLOC, name, start, 0.0, nbytes))
            resident[name] = np.ascontiguousarray(array, dtype=np.float32)

        scatter_outputs(graph, op, results, put)
        profile.record(
            Event(EventKind.KERNEL, step.op, start, end - start, int(launch_cost(op, graph)[1]))
        )

    def free(step: Free, start: float, end: float) -> None:
        nbytes = graph.data[step.data].size * FLOAT_BYTES
        profile.record(Event(EventKind.FREE, step.data, start, 0.0, nbytes))
        resident.pop(step.data, None)

    work = {"h2d": h2d, "d2h": d2h, "launch": launch, "free": free}
    timeline = _run_event_loop(
        plan, eg, in_order_copy=in_order_copy,
        fire=lambda i, step, stream, start, end: work[HOOKS[type(step)]](step, start, end),
    )
    timeline.copy_streams = copy_streams
    outputs = {
        name: assemble_root(graph, name, lambda n: hostmem[n])
        for name, ds in graph.data.items()
        if ds.is_output and ds.parent is None
    }
    return EventExecutionResult(
        outputs=outputs,
        timeline=timeline,
        profile=profile,
        h2d_floats=plan.h2d_floats(graph),
        d2h_floats=plan.d2h_floats(graph),
    )


__all__ = [
    "COMPUTE",
    "COPY_STREAM_MODES",
    "D2H_STREAM",
    "EventExecutionResult",
    "EventTimeline",
    "H2D_STREAM",
    "HOST_STREAM",
    "SHARED_COPY",
    "StreamEvent",
    "execute_plan_events",
    "plan_streams",
    "simulate_plan_events",
    "simulate_plan_overlap",
    "step_stream",
]
