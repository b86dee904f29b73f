"""Data-transfer scheduling (Section 3.3.1, second half).

Given an operator schedule, decide when data structures move between
host and device so that device memory is never exceeded and transfer
volume is minimised.  The paper's heuristic, implemented here as policy
``"belady"``:

1. compute the time of use of every data structure statically from the
   operator schedule;
2. when space is needed, evict the resident data structure whose use is
   furthest in the future (the Belady/MIN insight from cache
   replacement, which the paper cites as the basis of its
   "latest time of use" rule);
3. remove data eagerly — delete device copies the moment they become
   unnecessary, and invalid host copies are never written back.

Alternative eviction policies (``"ltu"`` — the paper's literal static
latest-time-of-use rule, ``"lru"``, ``"fifo"``) are provided for the
ablation benchmarks, plus ``"cost"``: a writeback-aware refinement of
Belady.  Greedy furthest-next-use ignores that evicting *dirty* data
(device results with no valid host copy) costs a download on top of the
eventual re-upload, while clean data costs only the re-upload — which is
precisely why the paper qualifies its optimality claim ("provided all
the data structures are of the same size and are consumed exactly
once").  The cost policy ranks victims by the future transfer cost their
eviction incurs (0 for dead data or dirty outputs whose save is due
anyway; 1x size for clean-but-reused data; 2x size for dirty reused
intermediates), breaking ties by furthest next use.

Evicting a data structure that is still needed later (or is a template
output not yet saved) costs a device-to-host copy; dead or
host-consistent data is simply freed.

The scheduler runs on the lowered tables of :mod:`repro.core.columnar`:
sizes, use pointers and last-use are flat integer-indexed columns, and
only the emitted steps and provenance notes carry names.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence

import numpy as np

from .columnar import ColumnarGraph, lower
from .graph import OperatorGraph
from .plan import CopyToCPU, CopyToGPU, ExecutionPlan, Free, Launch, PlanError, Step

_INF = float("inf")


class _MaxEntry:
    """Eviction-heap entry: inverted comparison turns heapq into a max-heap.

    ``key`` embeds the data name as its last component, so keys are unique
    and ``__lt__`` alone defines a strict total order.  ``seq`` is the
    lazy-invalidation token: an entry is live only while it matches the
    scheduler's current token for the datum (id) ``datum``.
    """

    __slots__ = ("key", "seq", "datum")

    def __init__(self, key, seq: int, datum: int) -> None:
        self.key = key
        self.seq = seq
        self.datum = datum

    def __lt__(self, other: "_MaxEntry") -> bool:
        return self.key > other.key


def _use_times(
    col: ColumnarGraph, op_ids: np.ndarray
) -> tuple[list[int], list[int], list[int]]:
    """Static use-time analysis (step 1), one vectorized pass.

    Returns ``(uses_ptr, uses_t, last_use)``: per-datum read positions as
    a CSR over the schedule (duplicate reads preserved, ascending), and
    the last read per datum (-1 when never read).
    """
    n_data = col.n_data
    counts = np.diff(col.in_ptr)[op_ids]
    total = int(counts.sum())
    if total:
        starts = col.in_ptr[op_ids]
        shift = np.cumsum(counts) - counts
        offs = np.arange(total, dtype=np.int64) - np.repeat(shift, counts)
        flat_d = col.in_ids[np.repeat(starts, counts) + offs]
        ts = np.repeat(np.arange(len(op_ids), dtype=np.int64), counts)
        order = np.argsort(flat_d, kind="stable")  # stable: t stays ascending
        sorted_t = ts[order]
        use_counts = np.bincount(flat_d, minlength=n_data)
    else:
        sorted_t = np.empty(0, dtype=np.int64)
        use_counts = np.zeros(n_data, dtype=np.int64)
    ends = np.cumsum(use_counts)
    last = np.full(n_data, -1, dtype=np.int64)
    nz = use_counts > 0
    last[nz] = sorted_t[ends[nz] - 1]
    uses_ptr = np.concatenate(([0], ends))
    return uses_ptr.tolist(), sorted_t.tolist(), last.tolist()


def schedule_transfers(
    graph: OperatorGraph,
    op_order: Sequence[str],
    capacity_floats: int,
    *,
    policy: str = "belady",
    eager_free: bool = True,
    col: ColumnarGraph | None = None,
) -> ExecutionPlan:
    """Greedy transfer scheduling for a fixed operator order.

    ``col`` is ``lower(graph)`` when the caller already holds it.
    """
    if policy not in ("belady", "cost", "ltu", "lru", "fifo"):
        raise ValueError(f"unknown eviction policy {policy!r}")
    col = lower(graph) if col is None else col
    capacity = capacity_floats
    if len(op_order) != len(graph.ops) or set(op_order) != set(graph.ops):
        raise ValueError("op_order must cover exactly the graph's operators")
    op_ids = np.fromiter(
        (col.op_id[o] for o in op_order), dtype=np.int64, count=len(op_order)
    )
    uses_ptr, uses_t, last_use = _use_times(col, op_ids)
    size = col.data_size
    is_out = col.data_is_output
    names = col.data_names
    op_names = col.op_names
    uin_ptr, uin_ids = col.uin_ptr, col.uin_ids
    uout_ptr, uout_ids = col.uout_ptr, col.uout_ids
    # ``use_ptr[d]`` is the absolute index (into ``uses_t``) of the first
    # not-yet-executed read of ``d``; ``uses_ptr[d+1]`` bounds it.  It is
    # advanced eagerly in the main loop when an operator consumes ``d``;
    # between consumptions the pointer (and therefore every eviction key)
    # is constant, which is what lets the heap entries below stay valid
    # without re-sorting.
    use_ptr = uses_ptr[:-1]
    counter = itertools.count()

    steps: list[Step] = []
    notes: list[str] = []  # provenance, parallel to steps (repro.obs)
    # Residency state as parallel columns: ``resident`` keeps membership
    # and insertion order (end-of-plan drain), the arrays hold the
    # per-datum fields.
    n_data = col.n_data
    resident: dict[int, None] = {}
    arrived = [0] * n_data  # step counter, for FIFO
    touched = [0] * n_data  # step counter, for LRU
    host_valid = bytearray(n_data)  # an identical copy exists in host memory
    used = 0
    # Residency insertion sequence (dict order proxy) for free_dead;
    # separate from ``counter`` so LRU/FIFO ticks are untouched.
    res_seq: dict[int, int] = {}
    seq_counter = itertools.count()
    # Max-heap over (evict_key, size, name) with lazy invalidation:
    # ``token[d]`` names the single live entry per resident datum.
    heap: list[_MaxEntry] = []
    token: dict[int, int] = {}
    token_counter = itertools.count()

    def emit(step: Step, reason: str) -> None:
        steps.append(step)
        notes.append(reason)

    def next_use(d: int) -> float:
        """First remaining use of ``d`` (eagerly-maintained pointer).

        No further reads: template outputs still need saving, which
        makes them the cheapest possible eviction (copy-out was due
        anyway); everything else is dead.
        """
        i = use_ptr[d]
        return uses_t[i] if i < uses_ptr[d + 1] else _INF

    def evict_key(d: int):
        if policy == "belady":
            return next_use(d)
        if policy == "cost":
            nxt = next_use(d)
            if nxt == _INF:
                # Dead (or an output whose mandatory save happens on
                # eviction): no *extra* future transfers.
                cost = 0
            elif host_valid[d]:
                cost = size[d]  # re-upload only
            elif is_out[d]:
                cost = size[d]  # save was due anyway + re-upload
            else:
                cost = 2 * size[d]  # writeback + re-upload
            return (-cost, nxt)
        if policy == "ltu":
            return last_use[d]
        if policy == "lru":
            return -touched[d]
        return -arrived[d]  # fifo

    def push_entry(d: int) -> None:
        seq = next(token_counter)
        token[d] = seq
        heapq.heappush(
            heap, _MaxEntry((evict_key(d), size[d], names[d]), seq, d)
        )

    def evict_one(t: int, pinned: set[int]) -> None:
        nonlocal used
        aside: list[_MaxEntry] = []
        chosen: _MaxEntry | None = None
        while heap:
            e = heapq.heappop(heap)
            if token.get(e.datum) != e.seq or e.datum not in resident:
                continue  # stale: superseded, evicted, or freed
            if e.datum in pinned:
                aside.append(e)
                continue
            chosen = e
            break
        for e in aside:
            heapq.heappush(heap, e)
        if chosen is None:
            raise PlanError(
                f"cannot free device memory at t={t}: all resident "
                "data is pinned by the current operator"
            )
        victim = chosen.datum
        del token[victim]
        del resident[victim]
        nxt = next_use(victim)
        where = (
            f"next use at step {int(nxt)}" if nxt != _INF else "no future use"
        )
        hv = host_valid[victim]
        needed_later = nxt != _INF or (is_out[victim] and not hv)
        vname = names[victim]
        if needed_later and not hv:
            why = (
                "dirty, writeback needed"
                if nxt != _INF
                else "unsaved output, save was due anyway"
            )
            emit(
                CopyToCPU(vname),
                f"evicted: policy={policy}, {where}, {why}",
            )
            emit(Free(vname), f"evicted: policy={policy}, {where}")
        elif nxt == _INF:
            emit(
                Free(vname),
                f"evicted: dead value, d2h skipped ({where})",
            )
        else:
            emit(
                Free(vname),
                f"evicted: policy={policy}, {where}, "
                "d2h skipped: host copy valid",
            )
        used -= size[victim]

    def free_dead(t: int, dead: list[int]) -> None:
        """Eagerly drop device data with no future use (step 3).

        Under eager freeing nothing dead survives a step, so the dead
        set at step ``t`` is exactly the current operator's touched
        data whose last use has passed — the caller collects it and
        this emits the frees in residency (insertion) order.
        """
        nonlocal used
        dead.sort(key=res_seq.__getitem__)
        for d in dead:
            if is_out[d] and not host_valid[d]:
                emit(
                    CopyToCPU(names[d]),
                    f"output save: last use passed at step {t}",
                )
                host_valid[d] = 1
            emit(Free(names[d]), f"freed: dead after step {t} (eager free)")
            used -= size[d]
            del resident[d]
            token.pop(d, None)

    for t, oid in enumerate(op_ids.tolist()):
        ins = uin_ids[uin_ptr[oid] : uin_ptr[oid + 1]]
        outs = uout_ids[uout_ptr[oid] : uout_ptr[oid + 1]]
        missing = [d for d in ins if d not in resident]
        need = sum(size[d] for d in missing)
        need += sum(size[d] for d in outs)
        footprint = need + sum(size[d] for d in ins if d in resident)
        if footprint > capacity:
            raise PlanError(
                f"operator {op_names[oid]!r} footprint {footprint} floats "
                f"exceeds capacity {capacity}; run operator "
                "splitting first"
            )
        pinned = set(ins) | set(outs)
        while used + need > capacity:
            evict_one(t, pinned)
        for d in missing:
            nxt = last_use[d]
            emit(
                CopyToGPU(names[d]),
                f"upload: input of {op_names[oid]} (launch {t}), "
                f"last use at step {nxt}",
            )
            resident[d] = None
            arrived[d] = next(counter)
            touched[d] = next(counter)
            host_valid[d] = 1
            res_seq[d] = next(seq_counter)
            used += size[d]
        emit(Launch(op_names[oid]), f"launch: scheduled position {t}")
        tick = next(counter)
        for d in ins:
            touched[d] = tick
            # Consume this use: advance the next-use pointer past ``t``.
            i = use_ptr[d]
            end = uses_ptr[d + 1]
            while i < end and uses_t[i] <= t:
                i += 1
            use_ptr[d] = i
        for d in outs:
            if d not in resident:
                res_seq[d] = next(seq_counter)
            resident[d] = None
            arrived[d] = tick
            touched[d] = tick
            host_valid[d] = 0
            used += size[d]
        if eager_free:
            dead = [d for d in ins if last_use[d] <= t and d in resident]
            dead += [d for d in outs if last_use[d] == -1]
            if dead:
                free_dead(t, dead)
        # Eviction keys changed only for this operator's data; push
        # fresh heap entries for those still resident.
        for d in ins:
            if d in resident:
                push_entry(d)
        for d in outs:
            if d in resident:
                push_entry(d)
    # Save any template outputs still on device, then drain.
    for d in list(resident):
        if is_out[d] and not host_valid[d]:
            emit(CopyToCPU(names[d]), "output save: end of plan")
        emit(Free(names[d]), "freed: end of plan drain")
        del resident[d]
    return ExecutionPlan(
        steps=steps,
        capacity_floats=capacity,
        label=f"{policy}+{'eager' if eager_free else 'lazy'}",
        notes=notes,
    )
