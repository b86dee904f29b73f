"""Discrete-event plan execution with explicit streams.

The synchronous executor (:func:`repro.runtime.executor.execute_plan`)
walks plan steps one at a time on a single simulated clock, so a plan's
elapsed time is the *sum* of its transfer and compute costs — exactly
the hardware limitation the paper worked under (Section 3.3.2: "We did
not overlap computation and communication in our experiments").
:mod:`repro.runtime.overlap` predicts what concurrent copy/compute
engines would do, but only by re-timing a finished plan.

This module closes that gap: plan steps become dependency-tracked
**events** issued onto explicit streams — one compute engine plus copy
engines (one per transfer direction, or a single shared engine) — and
each event *fires when its predecessors complete*, not in serialized
plan order.  Firing an event performs its numeric work, so the engine
is a real executor: outputs are byte-identical to the synchronous path
(the same numpy operator impls see the same operands in dependency
order) while the recorded timeline genuinely overlaps.

Dependency model (identical to :func:`simulate_plan_overlap`, which is
the validation oracle — see ``tests/test_events.py``):

* a launch waits on the uploads of its inputs and on the previous
  launch (one in-order compute queue);
* a download of an operator's output waits for that launch;
* a re-upload of evicted data waits for the download that saved it;
* frees are host-side bookkeeping events that wait on every prior step
  touching the buffer — they cost nothing and gate nothing.

Memory capacity is not re-checked here: the plan already bounds
simultaneous residency, and plans reach this engine after
:func:`validate_plan`.  Allocator-level fidelity (first-fit placement,
compaction, fault injection) stays with the synchronous executor; the
differential matrix pins this engine bitwise against it.

Invariants, asserted across the differential matrix and the overlap
benchmark gate:

* outputs are byte-identical to :func:`execute_plan`;
* ``total_time <= sync_total_time`` (overlap never loses);
* with a single shared copy engine the executed timeline equals
  :func:`simulate_plan_overlap`'s prediction exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.core.graph import OperatorGraph, op_slots
from repro.core.plan import (
    CopyToCPU,
    CopyToGPU,
    ExecutionPlan,
    Free,
    Launch,
    PeerCopy,
    Step,
)
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
#: ``simulate_plan_overlap`` hardware model, used for validation).
COPY_STREAM_MODES = ("per-direction", "shared")


def step_stream(step: Step, *, copy_streams: str = "per-direction") -> str:
    """The stream a plan step fires on (static assignment).

    Launches always take the compute engine; transfers take the copy
    engine for their direction (or the shared engine); frees and other
    bookkeeping run host-side.  ``PeerCopy`` is labelled ``p2p`` — the
    multi-GPU executor owns those steps.
    """
    if isinstance(step, Launch):
        return COMPUTE
    if isinstance(step, CopyToGPU):
        return SHARED_COPY if copy_streams == "shared" else H2D_STREAM
    if isinstance(step, CopyToCPU):
        return SHARED_COPY if copy_streams == "shared" else D2H_STREAM
    if isinstance(step, PeerCopy):
        return "p2p"
    return HOST_STREAM


def plan_streams(plan: ExecutionPlan, *, copy_streams: str = "per-direction") -> list[str]:
    """Stream assignment per plan step (the ``repro explain`` column).

    Multi-device plans prefix each stream with its device
    (``gpu1:h2d``); ``PeerCopy`` names both endpoints.
    """
    out: list[str] = []
    multi = plan.num_devices > 1
    for i, step in enumerate(plan.steps):
        name = step_stream(step, copy_streams=copy_streams)
        if isinstance(step, PeerCopy):
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
    durations: dict[int, float] = field(default_factory=dict)
    deps: dict[int, list[int]] = field(default_factory=dict)
    stream_of: dict[int, str] = field(default_factory=dict)
    compute_order: list[int] = field(default_factory=list)
    copy_queues: dict[str, list[int]] = field(default_factory=dict)
    free_order: list[int] = field(default_factory=list)


def _build_event_graph(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    cost: CostModel,
    *,
    copy_streams: str,
) -> _EventGraph:
    """Durations, dependency edges and stream assignment per plan step.

    The timed-step dependency construction is kept verbatim from
    :func:`simulate_plan_overlap` — that equality is load-bearing (the
    engine must reproduce the oracle's timing bit-for-bit on the shared
    copy-engine configuration).
    """
    if copy_streams not in COPY_STREAM_MODES:
        raise ValueError(
            f"copy_streams must be one of {COPY_STREAM_MODES}, "
            f"got {copy_streams!r}"
        )
    if plan.num_devices > 1 or any(
        isinstance(s, PeerCopy) for s in plan.steps
    ):
        raise ValueError(
            "the event engine executes single-device plans; multi-device "
            "plans run through repro.multigpu"
        )
    eg = _EventGraph()
    if copy_streams == "shared":
        eg.copy_queues[SHARED_COPY] = []
    else:
        eg.copy_queues[H2D_STREAM] = []
        eg.copy_queues[D2H_STREAM] = []
    last_upload: dict[str, int] = {}
    last_download: dict[str, int] = {}
    producer_launch: dict[str, int] = {}
    touched: dict[str, list[int]] = {}
    prev_launch: int | None = None
    for i, step in enumerate(plan.steps):
        stream = step_stream(step, copy_streams=copy_streams)
        eg.stream_of[i] = stream
        if isinstance(step, CopyToGPU):
            eg.durations[i] = cost.transfer_time_floats(graph.data[step.data].size)
            # Re-uploading evicted data needs the saving download done.
            eg.deps[i] = (
                [last_download[step.data]]
                if step.data in last_download
                else []
            )
            last_upload[step.data] = i
            eg.copy_queues[stream].append(i)
            touched.setdefault(step.data, []).append(i)
        elif isinstance(step, CopyToCPU):
            eg.durations[i] = cost.transfer_time_floats(graph.data[step.data].size)
            eg.deps[i] = (
                [producer_launch[step.data]]
                if step.data in producer_launch
                else []
            )
            last_download[step.data] = i
            eg.copy_queues[stream].append(i)
            touched.setdefault(step.data, []).append(i)
        elif isinstance(step, Launch):
            op = graph.ops[step.op]
            eg.durations[i] = cost.kernel_time(*launch_cost(op, graph))
            d = [last_upload[x] for x in op.inputs if x in last_upload]
            if prev_launch is not None:
                d.append(prev_launch)  # single in-order compute queue
            eg.deps[i] = d
            for x in op.outputs:
                producer_launch[x] = i
                last_upload.pop(x, None)  # device-born: no upload needed
                touched.setdefault(x, []).append(i)
            for x in op.inputs:
                touched.setdefault(x, []).append(i)
            prev_launch = i
            eg.compute_order.append(i)
        elif isinstance(step, Free):
            # Host bookkeeping: fires after every prior touch of the
            # buffer; costs nothing; nothing depends on it.
            eg.durations[i] = 0.0
            eg.deps[i] = list(touched.get(step.data, []))
            eg.free_order.append(i)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown step {step!r}")
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

    Engine policies match :func:`simulate_plan_overlap`: the compute
    engine issues in plan order; each copy engine issues the ready
    transfer that can start earliest (out-of-order past blocked
    downloads), or only its FIFO head with ``in_order_copy``.
    """
    finish: dict[int, float] = {}
    clocks: dict[str, float] = {name: 0.0 for name in eg.copy_queues}
    clocks[COMPUTE] = 0.0
    next_compute = 0
    pending_copy = {name: list(q) for name, q in eg.copy_queues.items()}
    pending_free = list(eg.free_order)
    fired: list[StreamEvent] = []
    copy_busy = sum(eg.durations[i] for q in eg.copy_queues.values() for i in q)
    compute_busy = sum(eg.durations[i] for i in eg.compute_order)

    def ready(i: int) -> bool:
        return all(d in finish for d in eg.deps[i])

    def issue(i: int, stream: str, start: float) -> None:
        end = start + eg.durations[i]
        finish[i] = end
        ev = StreamEvent(
            index=i,
            step=plan.steps[i],
            stream=stream,
            start=start,
            finish=end,
            deps=tuple(eg.deps[i]),
        )
        fired.append(ev)
        if fire is not None:
            fire(i, plan.steps[i], stream, start, end)

    while (
        next_compute < len(eg.compute_order)
        or any(pending_copy.values())
        or pending_free
    ):
        progressed = False
        # Compute engine: strict plan order.
        if next_compute < len(eg.compute_order):
            i = eg.compute_order[next_compute]
            if ready(i):
                start = max(
                    clocks[COMPUTE],
                    max((finish[d] for d in eg.deps[i]), default=0.0),
                )
                issue(i, COMPUTE, start)
                clocks[COMPUTE] = finish[i]
                next_compute += 1
                progressed = True
        # Copy engines: among ready transfers, issue the one that can
        # start earliest (out-of-order issue past blocked downloads, as
        # a multi-stream runtime would); plan order breaks ties.  With
        # in_order_copy only the head of each FIFO may issue.
        for stream, pending in pending_copy.items():
            best_k = -1
            best_start = float("inf")
            candidates = pending[:1] if in_order_copy else pending
            for k, i in enumerate(candidates):
                if ready(i):
                    start = max(
                        clocks[stream],
                        max((finish[d] for d in eg.deps[i]), default=0.0),
                    )
                    if start < best_start:
                        best_start = start
                        best_k = k
                    if start <= clocks[stream]:
                        break  # cannot start before the engine is free
            if best_k >= 0:
                i = pending.pop(best_k)
                issue(i, stream, best_start)
                clocks[stream] = finish[i]
                progressed = True
        # Host stream: frees fire as soon as their last toucher is done.
        still_pending: list[int] = []
        for i in pending_free:
            if ready(i):
                start = max((finish[d] for d in eg.deps[i]), default=0.0)
                issue(i, HOST_STREAM, start)
                progressed = True
            else:
                still_pending.append(i)
        pending_free = still_pending
        if not progressed:  # pragma: no cover - defensive
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

    With ``copy_streams="shared"`` this reproduces
    :func:`simulate_plan_overlap` exactly; the per-direction default can
    only be faster (independent uploads and downloads no longer contend
    for one DMA engine) and never slower than the synchronous walk.
    """
    cost = CostModel(device, host)
    eg = _build_event_graph(plan, graph, cost, copy_streams=copy_streams)
    timeline = _run_event_loop(plan, eg, in_order_copy=in_order_copy)
    timeline.copy_streams = copy_streams
    return timeline


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


class _StreamStore:
    """Device-side payload store for the event engine.

    Payload coercions mirror :class:`~repro.gpusim.SimRuntime` exactly
    (contiguous float32 on write, defensive copy on download) so the
    event engine's outputs are byte-identical to the synchronous
    executor's.
    """

    def __init__(self) -> None:
        self._data: dict[str, np.ndarray] = {}

    def write(self, name: str, array: np.ndarray) -> None:
        self._data[name] = np.ascontiguousarray(array, dtype=np.float32)

    def read_device(self, name: str) -> np.ndarray:
        try:
            return self._data[name]
        except KeyError:
            raise KeyError(f"device buffer {name!r} not resident") from None

    def download(self, name: str) -> np.ndarray:
        return self.read_device(name).copy()

    def free(self, name: str) -> None:
        self._data.pop(name, None)


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
    """Execute a validated plan on the discrete-event stream engine.

    Numeric work happens *inside* event firing: an upload materialises
    its host chunk onto the device store when the upload event fires, a
    launch gathers/computes/scatters when the compute engine reaches it,
    a download copies back when its producer has finished.  The recorded
    profile therefore carries genuinely overlapping start times — the
    executed timeline the paper's Section 3.3.2 extension describes.
    """
    cost = CostModel(device, host)
    eg = _build_event_graph(plan, graph, cost, copy_streams=copy_streams)
    store = _StreamStore()
    hostmem: dict[str, np.ndarray] = {}
    profile = Profile()

    def host_fetch(name: str) -> np.ndarray:
        if name not in hostmem:
            ds = graph.data[name]
            if not ds.is_input:
                raise KeyError(f"host read of {name!r} before it was saved")
            hostmem[name] = input_chunk_array(graph, name, template_inputs)
        return hostmem[name]

    def fire(i: int, step: Step, stream: str, start: float, end: float) -> None:
        if isinstance(step, CopyToGPU):
            arr = host_fetch(step.data)
            nbytes = arr.size * FLOAT_BYTES
            profile.record(Event(EventKind.ALLOC, step.data, start, 0.0, nbytes))
            profile.record(
                Event(EventKind.H2D, step.data, start, end - start, nbytes)
            )
            store.write(step.data, arr)
        elif isinstance(step, CopyToCPU):
            arr = store.download(step.data)
            hostmem[step.data] = arr
            profile.record(
                Event(
                    EventKind.D2H, step.data, start, end - start,
                    arr.size * FLOAT_BYTES,
                )
            )
        elif isinstance(step, Launch):
            op = graph.ops[step.op]
            impl = get_impl(op.kind)
            operands = [
                gather_slot(graph, s, store.read_device)
                for s in op_slots(op, graph)
            ]
            results = impl.execute(op, operands)

            def put(name: str, array: np.ndarray) -> None:
                profile.record(
                    Event(
                        EventKind.ALLOC, name, start, 0.0,
                        graph.data[name].size * FLOAT_BYTES,
                    )
                )
                store.write(name, array)

            scatter_outputs(graph, op, results, put)
            profile.record(
                Event(
                    EventKind.KERNEL, step.op, start, end - start,
                    int(launch_cost(op, graph)[1]),
                )
            )
        elif isinstance(step, Free):
            profile.record(
                Event(
                    EventKind.FREE, step.data, start, 0.0,
                    graph.data[step.data].size * FLOAT_BYTES,
                )
            )
            store.free(step.data)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown step {step!r}")

    timeline = _run_event_loop(plan, eg, in_order_copy=in_order_copy, fire=fire)
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
    "step_stream",
]
