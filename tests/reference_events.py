"""The quadratic event loop, kept as the oracle for ``repro.runtime.events``.

This is the discrete-event engine's dependency construction and issue
loop as they were before the engine became linear: every round rescans
each pending copy's readiness and every outstanding ``Free``.  Its
behaviour is the specification: with either copy-stream layout and
either copy-issue policy, :mod:`repro.runtime.events` must fire the
same events — index, stream, start, finish, deps — in the
same order (``tests/test_events_oracle.py``).  With one shared copy
engine it is also the two-engine overlap predictor the paper's Section
3.3.2 extension describes.  Do not change the behaviour of this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.graph import OperatorGraph
from repro.core.plan import (
    CopyToCPU,
    CopyToGPU,
    ExecutionPlan,
    Free,
    Launch,
    PeerCopy,
    Step,
)
from repro.gpusim import CostModel
from repro.ops import launch_cost
from repro.runtime.events import (
    COMPUTE,
    COPY_STREAM_MODES,
    D2H_STREAM,
    H2D_STREAM,
    HOST_STREAM,
    SHARED_COPY,
    EventTimeline,
    StreamEvent,
    step_stream,
)


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

