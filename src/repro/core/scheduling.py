"""Operator scheduling heuristics (Section 3.3.1).

The paper adopts a depth-first schedule "to maximize data reuse so that
we need not transfer things back and forth between the CPU and GPU": the
entire sub-tree of a child is scheduled before its sibling, backtracking
when precedence constraints are unmet.  BFS and plain topological
schedules are provided as ablation baselines (the DFS-vs-BFS transfer
gap is one of the design choices DESIGN.md benchmarks).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

import numpy as np

from .columnar import ColumnarGraph, lower
from .graph import GraphError, OperatorGraph


def row_band(graph: OperatorGraph, op_name: str) -> tuple[int, int] | None:
    """The output row range a (split) operator produces, or ``None``.

    Split parts carry ``params["out_range"]``; unsplit operators have no
    band.  The multi-GPU partitioner keys its device assignment on this.
    """
    rng = graph.ops[op_name].params.get("out_range")
    return (rng[0], rng[1]) if rng else None


def _dfs(col: ColumnarGraph, roots: list[int]) -> list[str]:
    """Iterative pre-order DFS over the lowered tables' integer ids."""
    scheduled = bytearray(col.n_ops)
    unmet = list(col.pred_counts)
    succ_ptr, succ_ids = col.succ_ptr, col.succ_ids
    order: list[int] = []
    stack = roots[::-1]
    while stack:
        o = stack.pop()
        if scheduled[o]:
            continue
        if unmet[o]:
            continue  # precedence not met: backtrack
        scheduled[o] = 1
        order.append(o)
        seg = succ_ids[succ_ptr[o] : succ_ptr[o + 1]]
        for s in seg:
            unmet[s] -= 1
        stack.extend(seg[::-1])
    if len(order) != col.n_ops:
        raise GraphError(
            f"dfs_schedule covered {len(order)}/{col.n_ops} operators "
            "(graph not reachable from roots?)"
        )
    names = col.op_names
    return [names[i] for i in order]


def dfs_schedule(
    graph: OperatorGraph, col: ColumnarGraph | None = None
) -> list[str]:
    """The paper's depth-first operator schedule, band-ordered roots.

    Iterative pre-order DFS from the root operators: an operator is
    scheduled the first time it is visited with all its predecessors
    already scheduled; otherwise the visit "backtracks" (the operator
    will be revisited as a successor of its last-scheduled predecessor,
    which guarantees completion on DAGs).

    Root operators are visited by the row band they produce
    (``params["out_range"][0]``, the ``band_start`` column): visiting
    roots band-by-band (all operators covering rows [0,k) before any
    operator of the next band) lets depth-first exploration complete a
    whole band of the pipeline — producing, consuming and retiring its
    chunks — before starting the next, which is what keeps out-of-core
    transfer volume near the I/O bound.  Unsplit operators all map to
    band 0 and ids are insertion order, so one stable sort on band start
    degenerates to insertion order on unsplit graphs; use
    :func:`dfs_naive_schedule` for plain insertion-order roots.

    ``col`` is ``lower(graph)`` when the caller already holds it.
    """
    col = lower(graph) if col is None else col
    roots = [i for i, n in enumerate(col.pred_counts) if not n]
    if roots:
        band = col.band_start[roots]
        roots = [roots[i] for i in np.argsort(band, kind="stable")]
    return _dfs(col, roots)


def dfs_naive_schedule(
    graph: OperatorGraph, col: ColumnarGraph | None = None
) -> list[str]:
    """Depth-first schedule with insertion-order roots (ablation)."""
    col = lower(graph) if col is None else col
    return _dfs(col, [i for i, n in enumerate(col.pred_counts) if not n])


def greedy_schedule(graph: OperatorGraph) -> list[str]:
    """Transfer-aware greedy schedule — the improvement the paper notes.

    Section 3.3.1 on the DFS heuristic: "The drawback of the approach is
    that the operator schedule does not take into account the GPU memory
    limitations at all ... there is scope for improvement by using
    information about the available GPU memory."  This scheduler uses
    that information's proxy: it maintains the set of values that would
    be live on the device and, among ready operators, runs the one that
    (a) needs the least non-live input volume fetched, then (b) retires
    the most live bytes (inputs whose last use it is), then (c) follows
    DFS order — locality-first with explicit transfer awareness.

    The live set mirrors the transfer scheduler's eager-free rule: an
    output is live only while consumers remain (dead-on-arrival outputs
    and template outputs past their last read get saved and freed, so
    they occupy no memory), and a value leaves the live set with its
    last read whether or not it is a template output.

    The ready set lives in a min-heap with lazy invalidation: scheduling
    an operator re-scores only the ready consumers of the data whose
    liveness actually changed, instead of the whole ready set.
    """
    preds = {o: set(graph.op_predecessors(o)) for o in graph.ops}
    remaining_reads = {d: len(cons) for d, cons in graph.consumers.items()}
    dfs_pos = {o: i for i, o in enumerate(dfs_schedule(graph))}
    uniq_inputs = {
        o: tuple(dict.fromkeys(op.inputs)) for o, op in graph.ops.items()
    }
    size = {d: ds.size for d, ds in graph.data.items()}
    live: set[str] = set()
    scheduled: set[str] = set()
    ready = {o for o, p in preds.items() if not p}
    order: list[str] = []

    def cost(o: str):
        fetch = 0
        freed = 0
        for d in uniq_inputs[o]:
            if d in live:
                if remaining_reads[d] == 1:
                    freed += size[d]
            else:
                fetch += size[d]
        return (fetch, -freed, dfs_pos[o])

    heap: list[tuple[tuple[int, int, int], int, str]] = []
    token: dict[str, int] = {}
    token_counter = itertools.count()

    def push(o: str) -> None:
        seq = next(token_counter)
        token[o] = seq
        heapq.heappush(heap, (cost(o), seq, o))

    for o in ready:
        push(o)
    while ready:
        while True:
            if not heap:
                raise GraphError("greedy_schedule did not cover all operators")
            _, seq, chosen = heapq.heappop(heap)
            if chosen in ready and token.get(chosen) == seq:
                break
        ready.discard(chosen)
        del token[chosen]
        scheduled.add(chosen)
        order.append(chosen)
        op = graph.ops[chosen]
        rescore: set[str] = set()
        for d in uniq_inputs[chosen]:
            remaining_reads[d] -= 1
            n = remaining_reads[d]
            if n == 0:
                live.discard(d)
            elif n == 1:
                # The freed-bytes bonus of d's remaining reader changed.
                rescore.update(graph.consumers.get(d, ()))
        for d in op.outputs:
            if graph.consumers.get(d):
                live.add(d)
        for s in graph.op_successors(chosen):
            if s not in scheduled and preds[s] <= scheduled:
                ready.add(s)
                push(s)
        for o in rescore:
            if o in ready:
                push(o)
    if len(order) != len(graph.ops):
        raise GraphError("greedy_schedule did not cover all operators")
    return order


def bfs_schedule(graph: OperatorGraph) -> list[str]:
    """Breadth-first (level-order) schedule — ablation baseline.

    Schedules all operators of one dependency level before the next,
    which maximises the set of simultaneously-live intermediates (the
    worst case for transfer volume under tight memory).
    """
    scheduled: set[str] = set()
    order: list[str] = []
    preds = {o: graph.op_predecessors(o) for o in graph.ops}
    queue = deque(graph.roots())
    while queue:
        op = queue.popleft()
        if op in scheduled:
            continue
        if any(p not in scheduled for p in preds[op]):
            queue.append(op)  # rotate until its predecessors ran
            continue
        scheduled.add(op)
        order.append(op)
        queue.extend(graph.op_successors(op))
    if len(order) != len(graph.ops):
        raise GraphError("bfs_schedule did not cover all operators")
    return order


def topo_schedule(graph: OperatorGraph) -> list[str]:
    """Kahn topological order with insertion-order tiebreak (ablation)."""
    return graph.topological_order()


SCHEDULERS = {
    "dfs": dfs_schedule,
    "dfs_naive": dfs_naive_schedule,
    "greedy": greedy_schedule,
    "bfs": bfs_schedule,
    "topo": topo_schedule,
}


def get_scheduler(name: str):
    try:
        return SCHEDULERS[name]
    except KeyError:
        raise KeyError(
            f"unknown operator scheduler {name!r}; known: {sorted(SCHEDULERS)}"
        ) from None
