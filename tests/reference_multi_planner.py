"""Reference multi-device planner: the oracle for N-device transfers.

A deliberately plain dict-and-name implementation over the object graph
and a :class:`~repro.multigpu.partition.Partition`: every victim is a
linear ``max`` over the resident set, next uses are re-walked from
per-device lists, and eager freeing rescans every resident datum after
each operator.  It shares no code with the columnar engine in
``repro.core.transfers``, so agreement (plan steps and devices, and the
provenance reason classes) is evidence rather than tautology;
``tests/test_multi_transfers.py`` drives the comparison.

It generalises the single-device walk to N devices.  The walk is the
same — one pass over the global operator order, uploading missing
inputs, evicting under memory pressure, eagerly freeing dead data — but
residency is tracked *per device* and a third source of data appears:
another device's memory.  A missing input that is resident on a peer
device moves either

* ``transfer_mode="peer"`` — directly, with one :class:`PeerCopy` step
  (device-to-device DMA through the PCIe switch; never touches host
  memory, so it does not count against the paper's Table 1 host-transfer
  metric), or
* ``transfer_mode="staged"`` — through host memory, as an explicit
  ``CopyToCPU`` on the holder followed by ``CopyToGPU`` on the consumer
  (the only option on pre-GPUDirect stacks).

Eviction stays Belady-style per device (furthest next use *on that
device*), with one multi-device refinement: a dirty victim only pays a
writeback if no other device still holds a copy and it has a future use
(or is an unsaved template output) — otherwise the surviving copy or the
host copy makes the download redundant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.core.graph import OperatorGraph
from repro.core.plan import (
    CopyToCPU,
    CopyToGPU,
    ExecutionPlan,
    Free,
    Launch,
    PeerCopy,
    PlanError,
    Step,
)
from repro.gpusim import DeviceGroup
from repro.multigpu.partition import Partition

_INF = float("inf")


@dataclass(slots=True)
class Resident:
    """Book-keeping for one data structure resident on one device."""

    size: int
    arrived: int  # step counter, for FIFO
    touched: int  # step counter, for LRU
    host_valid: bool  # an identical copy exists in host memory


class MultiTransferScheduler:
    """Greedy multi-device transfer scheduling for a fixed operator order."""

    def __init__(
        self,
        graph: OperatorGraph,
        group: DeviceGroup,
        partition: Partition,
        *,
        policy: str = "belady",
        eager_free: bool = True,
        transfer_mode: str = "peer",
        capacities: Sequence[int] | None = None,
    ) -> None:
        if policy not in ("belady", "ltu", "lru", "fifo"):
            raise ValueError(f"unknown eviction policy {policy!r}")
        if transfer_mode not in ("peer", "staged"):
            raise ValueError(f"unknown transfer mode {transfer_mode!r}")
        if partition.num_devices > len(group):
            raise ValueError(
                f"partition uses {partition.num_devices} devices, "
                f"group has {len(group)}"
            )
        self.graph = graph
        self.group = group
        self.partition = partition
        self.policy = policy
        self.eager_free = eager_free
        self.transfer_mode = transfer_mode
        self.capacities = (
            list(capacities)
            if capacities is not None
            else group.usable_memory_floats
        )

    # -- public ------------------------------------------------------------
    def schedule(self, op_order: Sequence[str]) -> ExecutionPlan:
        graph = self.graph
        part = self.partition
        n = len(self.group)
        if len(op_order) != len(graph.ops) or set(op_order) != set(graph.ops):
            raise ValueError("op_order must cover exactly the graph's operators")

        # Static use times, globally and per consuming device.
        uses_any: dict[str, list[int]] = {d: [] for d in graph.data}
        uses_dev: list[dict[str, list[int]]] = [
            {d: [] for d in graph.data} for _ in range(n)
        ]
        for t, op_name in enumerate(op_order):
            dev = part.device_of(op_name)
            for d in graph.ops[op_name].inputs:
                uses_any[d].append(t)
                uses_dev[dev][d].append(t)
        is_output = {
            d: ds.is_output for d, ds in graph.data.items() if not ds.virtual
        }
        last_use = {d: (us[-1] if us else -1) for d, us in uses_any.items()}
        ptr_any = {d: 0 for d in uses_any}
        ptr_dev = [{d: 0 for d in graph.data} for _ in range(n)]
        counter = itertools.count()

        steps: list[Step] = []
        notes: list[str] = []
        devices: list[int] = []
        resident: list[dict[str, Resident]] = [dict() for _ in range(n)]
        holders: dict[str, set[int]] = {d: set() for d in graph.data}
        host_valid: set[str] = {
            d for d, ds in graph.data.items() if ds.is_input and not ds.virtual
        }
        used = [0] * n

        def emit(step: Step, dev: int, reason: str) -> None:
            steps.append(step)
            devices.append(dev)
            notes.append(reason)

        def _advance(us: list[int], ptr: dict[str, int], d: str, t: int) -> float:
            i = ptr[d]
            while i < len(us) and us[i] < t:
                i += 1
            ptr[d] = i
            return us[i] if i < len(us) else _INF

        def next_use_on(dev: int, d: str, t: int) -> float:
            return _advance(uses_dev[dev][d], ptr_dev[dev], d, t)

        def next_use_any(d: str, t: int) -> float:
            return _advance(uses_any[d], ptr_any, d, t)

        def evict_key(dev: int, d: str, t: int):
            if self.policy == "belady":
                return next_use_on(dev, d, t)
            if self.policy == "ltu":
                return last_use[d]
            if self.policy == "lru":
                return -resident[dev][d].touched
            return -resident[dev][d].arrived  # fifo

        def drop(dev: int, d: str) -> None:
            used[dev] -= resident[dev].pop(d).size
            holders[d].discard(dev)

        def evict_one(dev: int, t: int, pinned: set[str]) -> None:
            candidates = [d for d in resident[dev] if d not in pinned]
            if not candidates:
                raise PlanError(
                    f"cannot free device {dev} memory at t={t}: all resident "
                    "data is pinned by the current operator"
                )
            victim = max(
                candidates,
                key=lambda d: (evict_key(dev, d, t), resident[dev][d].size, d),
            )
            nxt = next_use_any(victim, t)
            where = (
                f"next use at step {int(nxt)}" if nxt != _INF else "no future use"
            )
            sole_copy = holders[victim] == {dev}
            dirty = victim not in host_valid
            needed_later = nxt != _INF or (
                is_output.get(victim, False) and dirty
            )
            if needed_later and dirty and sole_copy:
                emit(
                    CopyToCPU(victim),
                    dev,
                    f"evicted: policy={self.policy}, {where}, sole dirty copy",
                )
                host_valid.add(victim)
                emit(Free(victim), dev, f"evicted: policy={self.policy}, {where}")
            elif not sole_copy:
                emit(
                    Free(victim),
                    dev,
                    f"evicted: policy={self.policy}, {where}, "
                    "d2h skipped: peer copy survives",
                )
            elif nxt == _INF and not (is_output.get(victim, False) and dirty):
                emit(Free(victim), dev, f"evicted: dead value ({where})")
            else:
                emit(
                    Free(victim),
                    dev,
                    f"evicted: policy={self.policy}, {where}, "
                    "d2h skipped: host copy valid",
                )
            drop(dev, victim)

        def free_dead(dev: int, t: int) -> None:
            for d in list(resident[dev]):
                if next_use_on(dev, d, t + 1) != _INF:
                    continue  # this device reads it again
                needed_elsewhere = next_use_any(d, t + 1) != _INF
                dirty = d not in host_valid
                sole_copy = holders[d] == {dev}
                if needed_elsewhere and dirty and sole_copy:
                    # Keep it: the consuming device will pull it directly
                    # (peer mode) or stage it when the read happens.
                    continue
                if is_output.get(d, False) and dirty and sole_copy:
                    emit(
                        CopyToCPU(d),
                        dev,
                        f"output save: last local use passed at step {t}",
                    )
                    host_valid.add(d)
                emit(Free(d), dev, f"freed: dead on device {dev} after step {t}")
                drop(dev, d)

        def acquire(dev: int, d: str, op_name: str, t: int) -> None:
            """Materialise one missing input on ``dev`` (space is reserved)."""
            size = graph.data[d].size
            tick = next(counter)
            if d in host_valid:
                emit(
                    CopyToGPU(d),
                    dev,
                    f"upload: input of {op_name} (launch {t}), "
                    f"last use at step {last_use[d]}",
                )
            elif holders[d]:
                src = min(
                    holders[d],
                    key=lambda s: next_use_on(s, d, t),
                )
                if self.transfer_mode == "peer":
                    emit(
                        PeerCopy(d, src, dev),
                        dev,
                        f"peer: input of {op_name} (launch {t}) "
                        f"produced on device {src}",
                    )
                else:
                    emit(
                        CopyToCPU(d),
                        src,
                        f"stage: {op_name} (launch {t}) needs {d} "
                        f"from device {src}",
                    )
                    host_valid.add(d)
                    emit(
                        CopyToGPU(d),
                        dev,
                        f"upload: staged input of {op_name} (launch {t})",
                    )
            else:  # pragma: no cover - scheduler invariant
                raise PlanError(
                    f"input {d!r} of {op_name!r} is neither host-valid nor "
                    "resident on any device"
                )
            resident[dev][d] = Resident(
                size=size, arrived=tick, touched=tick,
                host_valid=d in host_valid,
            )
            holders[d].add(dev)
            used[dev] += size

        for t, op_name in enumerate(op_order):
            dev = part.device_of(op_name)
            cap = self.capacities[dev]
            op = graph.ops[op_name]
            ins = list(dict.fromkeys(op.inputs))
            outs = list(dict.fromkeys(op.outputs))
            missing = [d for d in ins if d not in resident[dev]]
            need = sum(graph.data[d].size for d in missing)
            need += sum(graph.data[d].size for d in outs)
            footprint = need + sum(
                resident[dev][d].size for d in ins if d in resident[dev]
            )
            if footprint > cap:
                raise PlanError(
                    f"operator {op_name!r} footprint {footprint} floats "
                    f"exceeds device {dev} capacity {cap}; run operator "
                    "splitting first"
                )
            pinned = set(ins) | set(outs)
            while used[dev] + need > cap:
                evict_one(dev, t, pinned)
            for d in missing:
                acquire(dev, d, op_name, t)
            emit(Launch(op_name), dev, f"launch: scheduled position {t}")
            tick = next(counter)
            for d in ins:
                resident[dev][d].touched = tick
            for d in outs:
                resident[dev][d] = Resident(
                    size=graph.data[d].size,
                    arrived=tick,
                    touched=tick,
                    host_valid=False,
                )
                holders[d] = {dev}
                host_valid.discard(d)  # device result supersedes host copy
                used[dev] += resident[dev][d].size
            if self.eager_free:
                free_dead(dev, t)
        # Save unsaved template outputs, then drain every device.
        for dev in range(n):
            for d in list(resident[dev]):
                if is_output.get(d, False) and d not in host_valid:
                    emit(CopyToCPU(d), dev, "output save: end of plan")
                    host_valid.add(d)
                emit(Free(d), dev, "freed: end of plan drain")
                drop(dev, d)
        return ExecutionPlan(
            steps=steps,
            capacity_floats=min(self.capacities[:n]),
            label=(
                f"multigpu:{n}dev+{self.policy}+{self.transfer_mode}"
                f"+{'eager' if self.eager_free else 'lazy'}"
            ),
            notes=notes,
            devices=devices,
        )


def schedule_multi_transfers(
    graph: OperatorGraph,
    op_order: Sequence[str],
    group: DeviceGroup,
    partition: Partition,
    *,
    policy: str = "belady",
    eager_free: bool = True,
    transfer_mode: str = "peer",
    capacities: Sequence[int] | None = None,
) -> ExecutionPlan:
    """Convenience wrapper over :class:`MultiTransferScheduler`."""
    return MultiTransferScheduler(
        graph,
        group,
        partition,
        policy=policy,
        eager_free=eager_free,
        transfer_mode=transfer_mode,
        capacities=capacities,
    ).schedule(op_order)
