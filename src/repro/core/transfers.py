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

**One to N devices.**  Given one capacity per device and an op-id-indexed
device column (absent: every operator runs on device 0), the same walk
plans a device group.  Residency, use times, LRU/FIFO ticks and the
eviction heap are kept per (device, data id) — slot ``dev * n_data + d``
— so every eviction policy ranks with *per-device* next use, and one
device is simply the N = 1 case.  Three rules exist only because a
second device does:

* a missing input with no valid host copy comes from the holder that
  needs it soonest: one ``PeerCopy`` (``transfer_mode="peer"``, device
  to device, off the host bus) or a ``CopyToCPU`` on the holder followed
  by a ``CopyToGPU`` (``"staged"``, through host memory);
* a victim whose copy survives on a peer is freed with no writeback;
* a sole dirty copy that another device still reads is kept past its
  last local use.  Only a pull by a peer can make it freeable, so each
  pull queues the holders' copies for a recheck at their next eager
  free, instead of rescanning every resident datum per operator.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence

import numpy as np

from .columnar import ColumnarGraph, lower
from .graph import OperatorGraph
from .plan import CopyToCPU, CopyToGPU, ExecutionPlan, Free, Launch, PeerCopy, PlanError, Step

#: the ``policy`` values :func:`schedule_transfers` accepts
EVICTION_POLICIES = ("belady", "cost", "ltu", "lru", "fifo")

_INF = float("inf")


class _MaxEntry:
    """Eviction-heap entry: inverted comparison turns heapq into a max-heap.

    ``key`` embeds the data name as its last component, so keys are unique
    and ``__lt__`` alone defines a strict total order.  ``seq`` is the
    lazy-invalidation token: an entry is live only while it matches the
    scheduler's current token for the datum (id) ``datum`` on the heap's
    device.
    """

    __slots__ = ("key", "seq", "datum")

    def __init__(self, key, seq: int, datum: int) -> None:
        self.key = key
        self.seq = seq
        self.datum = datum

    def __lt__(self, other: "_MaxEntry") -> bool:
        return self.key > other.key


def _use_times(
    col: ColumnarGraph, op_ids: np.ndarray, op_dev: np.ndarray, n_dev: int
) -> tuple[list[int], list[int], list[int]]:
    """Static use-time analysis (step 1), one vectorized pass.

    Returns ``(uses_ptr, uses_t, last_use)``: read positions per
    (device, datum) slot ``dev * n_data + d`` as a CSR over the schedule
    (duplicate reads preserved, ascending), and the last read of each
    datum on any device (-1 when never read).
    """
    n_data = col.n_data
    counts = np.diff(col.in_ptr)[op_ids]
    total = int(counts.sum())
    if total:
        starts = col.in_ptr[op_ids]
        shift = np.cumsum(counts) - counts
        offs = np.arange(total, dtype=np.int64) - np.repeat(shift, counts)
        slots = col.in_ids[np.repeat(starts, counts) + offs]
        slots += np.repeat(op_dev * n_data, counts)
        ts = np.repeat(np.arange(len(op_ids), dtype=np.int64), counts)
        order = np.argsort(slots, kind="stable")  # stable: t stays ascending
        sorted_t = ts[order]
        use_counts = np.bincount(slots, minlength=n_dev * n_data)
    else:
        sorted_t = np.empty(0, dtype=np.int64)
        use_counts = np.zeros(n_dev * n_data, dtype=np.int64)
    ends = np.cumsum(use_counts)
    last = np.full(n_dev * n_data, -1, dtype=np.int64)
    nz = use_counts > 0
    last[nz] = sorted_t[ends[nz] - 1]
    uses_ptr = np.concatenate(([0], ends))
    last_use = last.reshape(n_dev, n_data).max(axis=0)
    return uses_ptr.tolist(), sorted_t.tolist(), last_use.tolist()


def schedule_transfers(
    graph: OperatorGraph,
    op_order: Sequence[str],
    capacity_floats: int | Sequence[int],
    *,
    policy: str = "belady",
    eager_free: bool = True,
    col: ColumnarGraph | None = None,
    op_device: Sequence[int] | None = None,
    transfer_mode: str = "peer",
) -> ExecutionPlan:
    """Greedy transfer scheduling for a fixed operator order.

    ``col`` is ``lower(graph)`` when the caller already holds it.  For a
    device group, ``capacity_floats`` holds one capacity per device and
    ``op_device[i]`` names the device of operator id ``i``; the plan is
    device-tagged unless every operator runs on device 0.
    """
    if policy not in EVICTION_POLICIES:
        raise ValueError(f"unknown eviction policy {policy!r}")
    if transfer_mode not in ("peer", "staged"):
        raise ValueError(f"unknown transfer mode {transfer_mode!r}")
    col = lower(graph) if col is None else col
    caps = (
        list(capacity_floats)
        if isinstance(capacity_floats, Sequence)
        else [capacity_floats]
    )
    n_dev = len(caps)
    if len(op_order) != len(graph.ops) or set(op_order) != set(graph.ops):
        raise ValueError("op_order must cover exactly the graph's operators")
    op_ids = np.fromiter(
        (col.op_id[o] for o in op_order), dtype=np.int64, count=len(op_order)
    )
    if op_device is None:
        op_dev = np.zeros(len(op_ids), dtype=np.int64)
    else:
        op_dev = np.asarray(op_device, dtype=np.int64)[op_ids]
        if len(op_dev) and (op_dev.min() < 0 or op_dev.max() >= n_dev):
            raise ValueError(
                f"device column names devices outside 0..{n_dev - 1}"
            )
    uses_ptr, uses_t, last_use = _use_times(col, op_ids, op_dev, n_dev)
    size = col.data_size
    is_out = col.data_is_output
    names = col.data_names
    op_names = col.op_names
    uin_ptr, uin_ids = col.uin_ptr, col.uin_ids
    uout_ptr, uout_ids = col.uout_ptr, col.uout_ids
    n_data = col.n_data
    # ``use_ptr[s]`` is the absolute index (into ``uses_t``) of the first
    # not-yet-executed read of slot ``s``; ``uses_ptr[s+1]`` bounds it.
    # It is advanced eagerly in the main loop when an operator consumes
    # the datum on that device; between consumptions the pointer (and
    # therefore every eviction key) is constant, which is what lets the
    # heap entries below stay valid without re-sorting.
    use_ptr = uses_ptr[:-1]
    counter = itertools.count()

    steps: list[Step] = []
    notes: list[str] = []  # provenance, parallel to steps (repro.obs)
    devices: list[int] = []  # device dimension, parallel to steps
    # Residency state: ``resident[dev]`` keeps membership and insertion
    # order (end-of-plan drain); the per-slot columns hold the fields.
    resident: list[dict[int, None]] = [{} for _ in range(n_dev)]
    arrived = [0] * (n_dev * n_data)  # step counter, for FIFO
    touched = [0] * (n_dev * n_data)  # step counter, for LRU
    # Residency insertion sequence (dict order proxy) for free_dead;
    # separate from ``counter`` so LRU/FIFO ticks are untouched.
    res_seq = [0] * (n_dev * n_data)
    seq_counter = itertools.count()
    # An identical copy exists in host memory.  Data no operator produces
    # are template inputs; an output clears the bit when it is produced.
    host_valid = bytearray(b"\x01") * n_data
    copies = [0] * n_data  # devices holding each datum
    used = [0] * n_dev
    # Per-device max-heap over (evict_key, size, name) with lazy
    # invalidation: ``token[s]`` names the single live entry per slot.
    heaps: list[list[_MaxEntry]] = [[] for _ in range(n_dev)]
    token = [-1] * (n_dev * n_data)
    token_counter = itertools.count()
    # Kept sole dirty copies a peer has since pulled, per device.
    recheck: list[set[int]] = [set() for _ in range(n_dev)]

    def emit(step: Step, dev: int, reason: str) -> None:
        steps.append(step)
        devices.append(dev)
        notes.append(reason)

    def next_use(s: int) -> float:
        """First remaining use of slot ``s`` (eagerly-maintained pointer).

        No further reads: template outputs still need saving, which
        makes them the cheapest possible eviction (copy-out was due
        anyway); everything else is dead on this device.
        """
        i = use_ptr[s]
        return uses_t[i] if i < uses_ptr[s + 1] else _INF

    def evict_key(s: int, d: int):
        if policy == "belady":
            return next_use(s)
        if policy == "cost":
            nxt = next_use(s)
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
            return -touched[s]
        return -arrived[s]  # fifo

    def push_entry(dev: int, d: int) -> None:
        s = dev * n_data + d
        seq = next(token_counter)
        token[s] = seq
        heapq.heappush(
            heaps[dev], _MaxEntry((evict_key(s, d), size[d], names[d]), seq, d)
        )

    def drop(dev: int, d: int) -> None:
        del resident[dev][d]
        used[dev] -= size[d]
        copies[d] -= 1

    def evict_one(dev: int, t: int, pinned: set[int]) -> None:
        heap, res, base = heaps[dev], resident[dev], dev * n_data
        aside: list[_MaxEntry] = []
        chosen: _MaxEntry | None = None
        while heap:
            e = heapq.heappop(heap)
            if token[base + e.datum] != e.seq or e.datum not in res:
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
                f"cannot free device {dev} memory at t={t}: all resident "
                "data is pinned by the current operator"
            )
        victim = chosen.datum
        nxt = next_use(base + victim)
        # Unpinned, so no read at ``t``: read again here or on a peer.
        later = last_use[victim] > t
        if nxt != _INF:
            where = f"next use at step {int(nxt)}"
        else:
            where = "next use on a peer" if later else "no future use"
        hv = host_valid[victim]
        sole = copies[victim] == 1
        vname = names[victim]
        if (later or is_out[victim]) and not hv and sole:
            why = (
                "dirty, writeback needed"
                if later
                else "unsaved output, save was due anyway"
            )
            emit(CopyToCPU(vname), dev, f"evicted: policy={policy}, {where}, {why}")
            host_valid[victim] = 1
            note = f"evicted: policy={policy}, {where}"
        elif not sole:
            note = f"evicted: policy={policy}, {where}, d2h skipped: peer copy survives"
        elif not later:
            note = f"evicted: dead value, d2h skipped ({where})"
        else:
            note = f"evicted: policy={policy}, {where}, d2h skipped: host copy valid"
        emit(Free(vname), dev, note)
        drop(dev, victim)

    def pull(dev: int, d: int, oid: int, t: int) -> None:
        """Bring ``d`` (no valid host copy) from the holder needing it soonest."""
        holders = [s for s in range(n_dev) if d in resident[s]]
        if not holders:
            raise PlanError(
                f"input {names[d]!r} of {op_names[oid]!r} is neither "
                "host-valid nor resident on any device"
            )
        src = min(holders, key=lambda s: next_use(s * n_data + d))
        op, name = op_names[oid], names[d]
        if transfer_mode == "peer":
            note = f"peer: input of {op} (launch {t}) produced on device {src}"
            emit(PeerCopy(name, src, dev), dev, note)
        else:
            note = f"stage: {op} (launch {t}) needs {name} from device {src}"
            emit(CopyToCPU(name), src, note)
            host_valid[d] = 1
            push_entry(src, d)  # its cost key priced a dirty copy
            emit(CopyToGPU(name), dev, f"upload: staged input of {op} (launch {t})")
        for s in holders:
            recheck[s].add(d)

    def free_dead(dev: int, t: int, dead: list[int]) -> None:
        """Eagerly drop device data with no future use (step 3).

        Under eager freeing nothing dead survives a step unless a peer
        still reads it, so the dead set at step ``t`` is the current
        operator's data whose last local use has passed, plus the kept
        copies a peer has pulled since — the caller collects both and
        this emits the frees in residency (insertion) order.
        """
        base = dev * n_data
        dead.sort(key=lambda d: res_seq[base + d])
        for d in dead:
            hv = host_valid[d]
            sole = copies[d] == 1
            if not hv and sole and last_use[d] > t:
                continue  # a peer still reads the sole dirty copy
            if is_out[d] and not hv and sole:
                note = f"output save: last use passed at step {t}"
                emit(CopyToCPU(names[d]), dev, note)
                host_valid[d] = 1
            emit(Free(names[d]), dev, f"freed: dead after step {t} (eager free)")
            drop(dev, d)

    for t, (oid, dev) in enumerate(zip(op_ids.tolist(), op_dev.tolist())):
        ins = uin_ids[uin_ptr[oid] : uin_ptr[oid + 1]]
        outs = uout_ids[uout_ptr[oid] : uout_ptr[oid + 1]]
        res = resident[dev]
        base = dev * n_data
        cap = caps[dev]
        missing = [d for d in ins if d not in res]
        need = sum(size[d] for d in missing)
        need += sum(size[d] for d in outs)
        footprint = need + sum(size[d] for d in ins if d in res)
        if footprint > cap:
            raise PlanError(
                f"operator {op_names[oid]!r} footprint {footprint} floats "
                f"exceeds device {dev} capacity {cap}; run operator "
                "splitting first"
            )
        pinned = set(ins) | set(outs)
        while used[dev] + need > cap:
            evict_one(dev, t, pinned)
        for d in missing:
            if host_valid[d]:
                emit(
                    CopyToGPU(names[d]),
                    dev,
                    f"upload: input of {op_names[oid]} (launch {t}), "
                    f"last use at step {last_use[d]}",
                )
            else:
                pull(dev, d, oid, t)
            s = base + d
            res[d] = None
            arrived[s] = next(counter)
            touched[s] = next(counter)
            res_seq[s] = next(seq_counter)
            used[dev] += size[d]
            copies[d] += 1
        emit(Launch(op_names[oid]), dev, f"launch: scheduled position {t}")
        tick = next(counter)
        dead: list[int] = []
        for d in ins:
            s = base + d
            touched[s] = tick
            # Consume this use: advance the next-use pointer past ``t``.
            i = use_ptr[s]
            end = uses_ptr[s + 1]
            while i < end and uses_t[i] <= t:
                i += 1
            use_ptr[s] = i
            if i == end:
                dead.append(d)
        for d in outs:
            s = base + d
            if d not in res:
                res_seq[s] = next(seq_counter)
                copies[d] += 1
            res[d] = None
            arrived[s] = tick
            touched[s] = tick
            host_valid[d] = 0
            used[dev] += size[d]
            if uses_ptr[s] == uses_ptr[s + 1]:
                dead.append(d)  # never read on this device
        if eager_free:
            if recheck[dev]:
                dead += [
                    d
                    for d in recheck[dev]
                    if d in res
                    and use_ptr[base + d] == uses_ptr[base + d + 1]
                    and d not in dead
                ]
                recheck[dev].clear()
            if dead:
                free_dead(dev, t, dead)
        # Eviction keys changed only for this operator's data; push
        # fresh heap entries for those still resident.
        for d in ins:
            if d in res:
                push_entry(dev, d)
        for d in outs:
            if d in res:
                push_entry(dev, d)
    # Save any template outputs still on a device, then drain.
    for dev, res in enumerate(resident):
        for d in res:
            if is_out[d] and not host_valid[d]:
                emit(CopyToCPU(names[d]), dev, "output save: end of plan")
                host_valid[d] = 1
            emit(Free(names[d]), dev, "freed: end of plan drain")
    return ExecutionPlan(
        steps=steps,
        capacity_floats=min(caps),
        label=f"{policy}+{'eager' if eager_free else 'lazy'}",
        notes=notes,
        devices=devices if op_dev.any() else [],
    )
