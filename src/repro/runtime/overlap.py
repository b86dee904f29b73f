"""Asynchronous copy/compute overlap (Section 3.3.2's extension).

"Current GPUs have the ability to perform asynchronous data transfer and
computation at the same time (as long as they are independent). ... We
did not overlap computation and communication in our experiments since
the GPUs that we used did not support this capability."

This module re-times an execution plan on a device *with* that
capability, using a two-engine dependency model:

* the **compute engine** executes launches in plan order (one compute
  queue, as on that hardware generation), each waiting for the uploads
  of its inputs;
* the **copy engine** executes transfers, issuing them out of order the
  way a stream runtime would: a download that waits on a kernel does not
  block later independent uploads;
* true dependencies are respected — a download of an operator's output
  waits for its launch; a (re-)upload of evicted data waits for the
  download that saved it.

Memory capacity is *not* re-checked here (the plan already bounds
simultaneous residency; overlapping can only shorten lifetimes of the
same residency set).

This module is a *predictor*: it re-times a finished plan without
executing it.  The prediction is exact, not merely optimistic — the
discrete-event engine (:mod:`repro.runtime.events`) executes plans on
real streams with the same dependency model, and its executed timeline
matches this module's figures bit-for-bit on the shared-copy-engine
configuration (asserted in ``tests/test_events.py``).  Use
:func:`repro.runtime.events.execute_plan_events` when you need the
overlapped run itself (payloads, per-stream profile); use this module
when you only need the numbers.  The gap between ``sync_total_time``
and ``total_time`` is the transfer cost the paper's synchronous
execution could have hidden — the objective-function change Section
3.3.2 sketches (count only non-overlapped transfers).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.graph import OperatorGraph
from repro.core.plan import CopyToCPU, CopyToGPU, ExecutionPlan, Launch
from repro.gpusim import CostModel, GpuDevice, HostSystem
from repro.ops import launch_cost


@dataclass
class OverlapResult:
    """Timing of a plan with concurrent copy and compute engines."""

    total_time: float
    copy_busy: float
    compute_busy: float
    sync_total_time: float  # same plan, engines serialised

    @property
    def hidden_transfer_time(self) -> float:
        """Transfer time overlapped behind computation."""
        return self.sync_total_time - self.total_time

    @property
    def speedup(self) -> float:
        return self.sync_total_time / self.total_time if self.total_time else 1.0

    @property
    def exposed_transfer_fraction(self) -> float:
        """Fraction of copy time NOT hidden behind compute."""
        if self.copy_busy == 0:
            return 0.0
        exposed = max(self.total_time - self.compute_busy, 0.0)
        return min(exposed / self.copy_busy, 1.0)


def simulate_plan_overlap(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    device: GpuDevice,
    host: HostSystem | None = None,
    *,
    in_order_copy: bool = False,
) -> OverlapResult:
    """Dependency-driven two-engine timing of an execution plan.

    ``in_order_copy=True`` models a single copy stream fed in plan order
    (what a generated program enqueueing transfers sequentially gets);
    the default models out-of-order issue across streams.  The in-order
    mode is where the :func:`repro.core.planopt.hoist_uploads` prefetch
    pass pays off — it reorders the plan so even a FIFO copy stream
    works ahead of the compute queue.
    """
    cost = CostModel(device, host)
    # Assign step indexes and durations; build the dependency edges.
    durations: dict[int, float] = {}
    deps: dict[int, list[int]] = {}
    copy_steps: list[int] = []
    compute_steps: list[int] = []
    last_upload: dict[str, int] = {}  # data -> step idx of latest h2d
    last_download: dict[str, int] = {}
    producer_launch: dict[str, int] = {}  # data -> step idx of the launch
    prev_launch: int | None = None
    for i, step in enumerate(plan.steps):
        if isinstance(step, CopyToGPU):
            durations[i] = cost.transfer_time_floats(graph.data[step.data].size)
            # Re-uploading evicted data needs the saving download done.
            deps[i] = (
                [last_download[step.data]]
                if step.data in last_download
                else []
            )
            last_upload[step.data] = i
            copy_steps.append(i)
        elif isinstance(step, CopyToCPU):
            durations[i] = cost.transfer_time_floats(graph.data[step.data].size)
            deps[i] = (
                [producer_launch[step.data]]
                if step.data in producer_launch
                else []
            )
            last_download[step.data] = i
            copy_steps.append(i)
        elif isinstance(step, Launch):
            op = graph.ops[step.op]
            durations[i] = cost.kernel_time(*launch_cost(op, graph))
            d = [last_upload[x] for x in op.inputs if x in last_upload]
            if prev_launch is not None:
                d.append(prev_launch)  # single in-order compute queue
            deps[i] = d
            for x in op.outputs:
                producer_launch[x] = i
                last_upload.pop(x, None)  # device-born: no upload needed
            prev_launch = i
            compute_steps.append(i)
        # Free has no timing effect.

    finish: dict[int, float] = {}
    copy_clock = 0.0
    compute_clock = 0.0
    next_compute = 0
    pending_copy = list(copy_steps)
    copy_busy = sum(durations[i] for i in copy_steps)
    compute_busy = sum(durations[i] for i in compute_steps)

    def ready(i: int) -> bool:
        return all(d in finish for d in deps[i])

    while next_compute < len(compute_steps) or pending_copy:
        progressed = False
        # Compute engine: strict plan order.
        if next_compute < len(compute_steps):
            i = compute_steps[next_compute]
            if ready(i):
                start = max(
                    compute_clock,
                    max((finish[d] for d in deps[i]), default=0.0),
                )
                compute_clock = start + durations[i]
                finish[i] = compute_clock
                next_compute += 1
                progressed = True
        # Copy engine: among ready transfers, issue the one that can
        # start earliest (out-of-order issue past blocked downloads, as
        # a multi-stream runtime would); plan order breaks ties.  With
        # in_order_copy only the head of the FIFO may issue.
        best_k = -1
        best_start = float("inf")
        candidates = pending_copy[:1] if in_order_copy else pending_copy
        for k, i in enumerate(candidates):
            if ready(i):
                start = max(
                    copy_clock,
                    max((finish[d] for d in deps[i]), default=0.0),
                )
                if start < best_start:
                    best_start = start
                    best_k = k
                if start <= copy_clock:
                    break  # cannot start earlier than the engine is free
        if best_k >= 0:
            i = pending_copy.pop(best_k)
            copy_clock = best_start + durations[i]
            finish[i] = copy_clock
            progressed = True
        if not progressed:  # pragma: no cover - defensive
            raise RuntimeError("overlap simulation deadlocked (cyclic deps?)")
    total = max(copy_clock, compute_clock)
    return OverlapResult(
        total_time=total,
        copy_busy=copy_busy,
        compute_busy=compute_busy,
        sync_total_time=copy_busy + compute_busy,
    )
