"""Reference planner: the oracle the planner engine is pinned against.

A deliberately plain implementation of the paper's pipeline (Section
3.3.1) over the object graph — dict-based depth-first schedule, and a
transfer scheduler that picks every eviction victim with a linear scan
of the resident set.  No lowered tables, no heap, no vectorized use-time
analysis: nothing here shares code with ``repro.core.scheduling`` /
``repro.core.transfers``, so agreement (operator order, plan steps *and*
provenance notes, byte for byte) is evidence rather than tautology.
``tests/differential.py::assert_engine_matches_reference`` and
``tests/test_eviction_heap.py`` drive the comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.core.graph import GraphError, OperatorGraph
from repro.core.plan import (
    CopyToCPU,
    CopyToGPU,
    ExecutionPlan,
    Free,
    Launch,
    PlanError,
    Step,
)

_INF = float("inf")


# ---------------------------------------------------------------------------
# Operator scheduling
# ---------------------------------------------------------------------------
def _dfs(graph: OperatorGraph, roots: list[str]) -> list[str]:
    scheduled: set[str] = set()
    order: list[str] = []
    stack = list(reversed(roots))
    while stack:
        op = stack.pop()
        if op in scheduled:
            continue
        if any(p not in scheduled for p in graph.op_predecessors(op)):
            continue  # precedence not met: backtrack
        scheduled.add(op)
        order.append(op)
        stack.extend(reversed(graph.op_successors(op)))
    if len(order) != len(graph.ops):
        raise GraphError(
            f"dfs_schedule covered {len(order)}/{len(graph.ops)} operators"
        )
    return order


def dfs_schedule(graph: OperatorGraph) -> list[str]:
    """Depth-first schedule, roots by ``(out_range start, insertion index)``."""
    index = {o: i for i, o in enumerate(graph.ops)}

    def band_key(o: str) -> tuple[int, int]:
        rng = graph.ops[o].params.get("out_range")
        return (rng[0] if rng else 0, index[o])

    return _dfs(graph, sorted(graph.roots(), key=band_key))


def dfs_naive_schedule(graph: OperatorGraph) -> list[str]:
    """Depth-first schedule, insertion-order roots."""
    return _dfs(graph, graph.roots())


REFERENCE_SCHEDULERS = {"dfs": dfs_schedule, "dfs_naive": dfs_naive_schedule}


# ---------------------------------------------------------------------------
# Transfer scheduling
# ---------------------------------------------------------------------------
@dataclass
class _Resident:
    size: int
    arrived: int  # step counter, for FIFO
    touched: int  # step counter, for LRU
    host_valid: bool  # an identical copy exists in host memory


def schedule_transfers(
    graph: OperatorGraph,
    op_order: Sequence[str],
    capacity: int,
    *,
    policy: str = "belady",
    eager_free: bool = True,
) -> ExecutionPlan:
    """Greedy transfer scheduling, linear-scan eviction."""
    uses: dict[str, list[int]] = {d: [] for d in graph.data}
    for t, op_name in enumerate(op_order):
        for d in graph.ops[op_name].inputs:
            uses[d].append(t)
    last_use = {d: (us[-1] if us else -1) for d, us in uses.items()}
    is_output = {
        d: ds.is_output and not ds.virtual for d, ds in graph.data.items()
    }
    counter = itertools.count()
    steps: list[Step] = []
    notes: list[str] = []
    resident: dict[str, _Resident] = {}

    def emit(step: Step, reason: str) -> None:
        steps.append(step)
        notes.append(reason)

    def next_use(d: str, t: int) -> float:
        """First read of ``d`` at or after step ``t``."""
        return next((u for u in uses[d] if u >= t), _INF)

    def evict_key(d: str, t: int):
        entry = resident[d]
        nxt = next_use(d, t)
        if policy == "belady":
            return nxt
        if policy == "cost":
            if nxt == _INF:
                cost = 0
            elif entry.host_valid or is_output[d]:
                cost = entry.size
            else:
                cost = 2 * entry.size
            return (-cost, nxt)
        if policy == "ltu":
            return last_use[d]
        if policy == "lru":
            return -entry.touched
        return -entry.arrived  # fifo

    def evict_one(t: int, pinned: set[str]) -> None:
        candidates = [d for d in resident if d not in pinned]
        if not candidates:
            raise PlanError(f"cannot free device memory at t={t}")
        victim = max(
            candidates, key=lambda d: (evict_key(d, t), resident[d].size, d)
        )
        entry = resident.pop(victim)
        nxt = next_use(victim, t)
        where = (
            f"next use at step {int(nxt)}" if nxt != _INF else "no future use"
        )
        needed_later = nxt != _INF or (
            is_output[victim] and not entry.host_valid
        )
        if needed_later and not entry.host_valid:
            why = (
                "dirty, writeback needed"
                if nxt != _INF
                else "unsaved output, save was due anyway"
            )
            emit(CopyToCPU(victim), f"evicted: policy={policy}, {where}, {why}")
            emit(Free(victim), f"evicted: policy={policy}, {where}")
        elif nxt == _INF:
            emit(Free(victim), f"evicted: dead value, d2h skipped ({where})")
        else:
            emit(
                Free(victim),
                f"evicted: policy={policy}, {where}, "
                "d2h skipped: host copy valid",
            )

    for t, op_name in enumerate(op_order):
        op = graph.ops[op_name]
        ins = list(dict.fromkeys(op.inputs))
        outs = list(dict.fromkeys(op.outputs))
        missing = [d for d in ins if d not in resident]
        need = sum(graph.data[d].size for d in missing + outs)
        pinned = set(ins) | set(outs)
        while sum(e.size for e in resident.values()) + need > capacity:
            evict_one(t, pinned)
        for d in missing:
            emit(
                CopyToGPU(d),
                f"upload: input of {op_name} (launch {t}), "
                f"last use at step {last_use[d]}",
            )
            resident[d] = _Resident(
                graph.data[d].size, next(counter), next(counter), True
            )
        emit(Launch(op_name), f"launch: scheduled position {t}")
        tick = next(counter)
        for d in ins:
            resident[d].touched = tick
        for d in outs:
            # Re-assigning keeps a resident output's dict position.
            resident[d] = _Resident(graph.data[d].size, tick, tick, False)
        if eager_free:
            # Full scan in residency order: whatever has no read left.
            for d in [d for d in resident if last_use[d] <= t]:
                if is_output[d] and not resident[d].host_valid:
                    emit(
                        CopyToCPU(d),
                        f"output save: last use passed at step {t}",
                    )
                emit(Free(d), f"freed: dead after step {t} (eager free)")
                del resident[d]
    for d, entry in resident.items():
        if is_output[d] and not entry.host_valid:
            emit(CopyToCPU(d), "output save: end of plan")
        emit(Free(d), "freed: end of plan drain")
    return ExecutionPlan(
        steps=steps,
        capacity_floats=capacity,
        label=f"{policy}+{'eager' if eager_free else 'lazy'}",
        notes=notes,
    )
