"""The paper's two non-optimising execution patterns, as plans.

:func:`baseline_plan` is Section 4's baseline ("For comparison purposes,
we propose the following execution pattern as the baseline").  For each
operator: transfer its inputs to the GPU, execute, copy its
results back to the CPU immediately, and free everything — no persistent
device storage.  Any operator can run without interference from others,
but every value crosses the PCIe bus once per use, which is what the
optimized plans beat by 1.7-7.8x.

The baseline operates on the *unsplit* template: it is infeasible (the
paper's "N/A" entries) as soon as any single operator's footprint
exceeds device memory.

:func:`online_plan` is Section 3.3.2's closing alternative, "a simple
run-time library to orchestrate execution": inputs uploaded on demand,
least-recently-touched eviction and reference-counted frees.  None of
those decisions looks ahead, so they are recorded before the run and
the synchronous walker executes them (``repro.runtime.dynamic``).
"""

from __future__ import annotations

from typing import Sequence

from .graph import OperatorGraph, op_out_specs
from .plan import CopyToCPU, CopyToGPU, ExecutionPlan, Free, Launch, PlanError, Step


def baseline_plan(
    graph: OperatorGraph,
    capacity_floats: int,
    op_order: Sequence[str] | None = None,
) -> ExecutionPlan:
    """Build the copy-in / execute / copy-out baseline plan.

    Raises :class:`PlanError` when some operator cannot fit device memory
    even alone — the configurations Table 1/2 mark "N/A".
    """
    if op_order is not None:
        order = list(op_order)
    else:
        # The paper's baseline executes operators in the application's
        # program order (= template insertion order); fall back to a
        # topological sort for graphs built out of order.
        order = list(graph.ops)
        pos = {o: i for i, o in enumerate(order)}
        if any(
            pos[p] > pos[o]
            for o in order
            for p in graph.op_predecessors(o)
        ):
            order = graph.topological_order()
    steps: list[Step] = []
    for op_name in order:
        op = graph.ops[op_name]
        fp = graph.op_footprint(op_name)
        if fp > capacity_floats:
            raise PlanError(
                f"baseline infeasible: operator {op_name!r} footprint "
                f"{fp} floats exceeds device capacity {capacity_floats}"
            )
        ins = list(dict.fromkeys(op.inputs))
        outs = list(dict.fromkeys(op.outputs))
        for d in ins:
            steps.append(CopyToGPU(d))
        steps.append(Launch(op_name))
        for d in outs:
            steps.append(CopyToCPU(d))
        for d in ins + outs:
            steps.append(Free(d))
    return ExecutionPlan(
        steps=steps, capacity_floats=capacity_floats, label="baseline"
    )


def online_plan(
    graph: OperatorGraph,
    capacity_floats: int,
    op_order: Sequence[str] | None = None,
) -> ExecutionPlan:
    """Record the run-time library's online decisions as a plan.

    Operators run in ``op_order`` (default: topological).  Before each
    upload, and before a launch's outputs, the least-recently-touched
    datum the launch does not use is evicted (ties go to the earliest
    resident), written back first if its host copy is stale.  After each
    launch, the inputs it read for the last time and the outputs nobody
    reads are freed.

    Raises ``RuntimeError`` when the launch's own data cannot fit.  An
    order that reads a datum before its producer runs gives a plan
    :func:`~repro.core.plan.validate_plan` rejects.
    """
    order = list(op_order) if op_order is not None else graph.topological_order()
    data = graph.data
    refs = dict.fromkeys(data, 0)  # reads still to come
    for o in order:
        for d in graph.ops[o].inputs:
            refs[d] += 1
    resident: dict[str, int] = {}  # datum -> last touch, in insertion order
    stale: set[str] = set()  # resident outputs with no host copy
    used = 0
    plan = ExecutionPlan(capacity_floats=capacity_floats, label="online-lru")

    def emit(step: Step, note: str) -> None:
        plan.steps.append(step)
        plan.notes.append(note)

    def free(d: str, note: str) -> None:
        nonlocal used
        del resident[d]
        stale.discard(d)
        used -= data[d].size
        emit(Free(d), note)

    def make_room(need: int, pinned: set[str]) -> None:
        while used + need > capacity_floats:
            candidates = [d for d in resident if d not in pinned]
            if not candidates:
                raise RuntimeError(
                    "dynamic executor: all resident data pinned; operator "
                    "footprint exceeds device capacity (split the template)"
                )
            victim = min(candidates, key=resident.__getitem__)
            if victim in stale:  # still needed: dead data were freed when they died
                emit(CopyToCPU(victim), "evicted: policy=lru, dirty, writeback needed")
            free(victim, "evicted: policy=lru, least recently touched")

    for t, op_name in enumerate(order):
        op = graph.ops[op_name]
        ins = list(dict.fromkeys(op.inputs))
        outs = list(dict.fromkeys(op.outputs))
        pinned = set(ins) | set(outs)
        for d in ins:
            if d not in resident:
                make_room(data[d].size, pinned)
                emit(CopyToGPU(d), f"upload: input of {op_name} (launch {t}), on demand")
                used += data[d].size
            resident[d] = t
        make_room(sum(data[d].size for d in outs), pinned)
        emit(Launch(op_name), f"launch: scheduled position {t}")
        for spec in op_out_specs(op, graph):  # the order outputs are stored
            for d, _ in spec.chunks:
                resident[d] = t
                stale.add(d)
        used += sum(data[d].size for d in outs)
        for d in ins:
            refs[d] -= 1
        for d in ins + outs:
            if refs[d] == 0 and not data[d].is_output:
                free(d, f"freed: dead after step {t} (reference count)")
    for d in list(resident):
        if d in stale and data[d].is_output:
            emit(CopyToCPU(d), "output save: end of plan")
        free(d, "freed: end of plan drain")
    return plan


def baseline_transfer_floats(graph: OperatorGraph) -> int:
    """Analytic baseline transfer volume: sum over operators of in+out.

    Matches Table 1's "Baseline implementation" column (e.g. 13,000,512
    floats for 1000x1000 edge detection).
    """
    total = 0
    for op in graph.ops.values():
        total += sum(graph.data[d].size for d in dict.fromkeys(op.inputs))
        total += sum(graph.data[d].size for d in dict.fromkeys(op.outputs))
    return total
