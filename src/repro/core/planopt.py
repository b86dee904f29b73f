"""Post-scheduling plan transformations.

:func:`hoist_uploads` — prefetching for asynchronous devices.  The
transfer scheduler emits each upload immediately before the launch that
needs it (the right choice for the paper's synchronous GPUs: residency
time is minimised).  On a device that overlaps copies with compute
(Section 3.3.2's extension), moving uploads *earlier* lets the copy
engine work ahead of the compute queue.  The pass hoists every
``CopyToGPU`` to the earliest position that

* keeps it after the step that makes its source available on the host
  (a prior ``CopyToCPU`` of the same data; template inputs are always
  available), and after any prior ``Free`` of the same data (no
  duplicate residency), and
* keeps device occupancy within capacity at every intermediate step
  (earlier uploads extend residency, so this is checked explicitly).

The transformed plan has identical transfer volume and remains valid for
synchronous execution; its benefit shows up on the event engine's
in-order copy stream (:func:`repro.runtime.simulate_plan_overlap` with
``in_order_copy=True``).
"""

from __future__ import annotations

from .graph import OperatorGraph
from .plan import CopyToCPU, CopyToGPU, ExecutionPlan, Free, Launch, validate_plan


def hoist_uploads(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    capacity_floats: int | None = None,
    *,
    max_hoist: int | None = None,
) -> ExecutionPlan:
    """Return a plan with uploads prefetched as early as capacity allows.

    ``max_hoist`` optionally caps how many positions a single upload may
    move (a lookahead window, like bounded prefetch queues).
    """
    cap = capacity_floats if capacity_floats is not None else plan.capacity_floats
    steps = list(plan.steps)
    # Provenance rides along with the reordered steps (when present).
    notes = list(plan.notes) if len(plan.notes) == len(steps) else None
    # Per-step occupancy deltas, computed once and reordered alongside
    # ``steps``: a hoist then refreshes the displaced window with plain
    # adds instead of re-deriving every Launch's output footprint.
    deltas: list[int] = []
    occ: list[int] = []  # occupancy after each step (floats)
    used = 0
    for step in steps:
        delta = 0
        if isinstance(step, CopyToGPU):
            delta = graph.data[step.data].size
        elif isinstance(step, Free):
            delta = -graph.data[step.data].size
        elif isinstance(step, Launch):
            delta = sum(
                graph.data[d].size
                for d in dict.fromkeys(graph.ops[step.op].outputs)
            )
        deltas.append(delta)
        used += delta
        occ.append(used)

    i = 0
    while i < len(steps):
        step = steps[i]
        if not isinstance(step, CopyToGPU):
            i += 1
            continue
        size = graph.data[step.data].size
        # Find the earliest feasible target position.
        target = i
        j = i - 1
        while j >= 0:
            prev = steps[j]
            if isinstance(prev, (CopyToCPU, Free)) and prev.data == step.data:
                break  # source availability / prior residency barrier
            if isinstance(prev, CopyToGPU):
                # Never reorder uploads past each other: the copy FIFO
                # must feed the earliest launches first, or prefetching
                # a later operator's inputs starves the current one.
                break
            # Placing the upload at position j charges `size` to the
            # occupancy right after it (occ[j-1] + size) and after every
            # displaced step (occ[k] + size for k in [j, i-1]).
            before = occ[j - 1] if j > 0 else 0
            if before + size > cap or occ[j] + size > cap:
                break
            target = j
            if max_hoist is not None and i - target >= max_hoist:
                break
            j -= 1
        if target < i:
            del steps[i]
            steps.insert(target, step)
            deltas.insert(target, deltas.pop(i))
            if notes is not None:
                note = notes.pop(i)
                notes.insert(target, f"{note}; hoisted {i - target} steps")
            # Occupancy recompute for the reordered window (positions
            # outside [target, i] see the same multiset of prior steps).
            for k in range(target, i + 1):
                prev_occ = occ[k - 1] if k > 0 else 0
                occ[k] = prev_occ + deltas[k]
        i += 1
    out = ExecutionPlan(
        steps=steps,
        capacity_floats=plan.capacity_floats,
        label=(plan.label + "+prefetch") if plan.label else "prefetch",
        notes=notes or [],
    )
    validate_plan(out, graph, cap)
    return out
