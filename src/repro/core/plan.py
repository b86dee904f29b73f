"""Execution plans.

"The execution sequence of operators on the GPU, and data transfers to
and from the GPU memory, is referred to as an execution plan" (Section
3.3.2, example).  A plan is a flat list of typed steps:

* ``CopyToGPU(data)`` — host-to-device transfer (allocates on device)
* ``CopyToCPU(data)`` — device-to-host transfer (device copy remains)
* ``Launch(op)``      — execute one offload unit; allocates its outputs
* ``Free(data)``      — release the device copy without transferring
* ``PeerCopy(data, src, dst)`` — direct device-to-device transfer
  (multi-GPU plans only; allocates on ``dst``, the ``src`` copy remains)

Plans may carry a *device dimension* (:attr:`ExecutionPlan.devices`, a
list parallel to ``steps`` naming the device each step runs on).  A plan
without it is a single-device plan — every step implicitly runs on
device 0 — which keeps the paper's original single-GPU pipeline exactly
as it was.

Plans are validated symbolically (:func:`validate_plan`) before they are
handed to the code generator or the simulator-backed executor: memory
stays within capacity at every step on every device, every launch has
its inputs resident on its device and its dependencies executed, and
every template output ends up in host memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .graph import OperatorGraph


class PlanError(RuntimeError):
    """An execution plan violates feasibility or correctness invariants."""


@dataclass(frozen=True)
class Step:
    """Base class for plan steps."""


@dataclass(frozen=True)
class CopyToGPU(Step):
    data: str

    def __str__(self) -> str:
        return f"h2d  {self.data}"


@dataclass(frozen=True)
class CopyToCPU(Step):
    data: str

    def __str__(self) -> str:
        return f"d2h  {self.data}"


@dataclass(frozen=True)
class Launch(Step):
    op: str

    def __str__(self) -> str:
        return f"exec {self.op}"


@dataclass(frozen=True)
class Free(Step):
    data: str

    def __str__(self) -> str:
        return f"free {self.data}"


@dataclass(frozen=True)
class PeerCopy(Step):
    """Direct device-to-device copy of ``data`` from ``src`` to ``dst``."""

    data: str
    src: int
    dst: int

    def __str__(self) -> str:
        return f"p2p  {self.data} gpu{self.src}->gpu{self.dst}"


@dataclass
class ExecutionPlan:
    """An ordered offload/transfer schedule for one template + device."""

    steps: list[Step] = field(default_factory=list)
    capacity_floats: int = 0
    label: str = ""
    #: optional provenance, parallel to ``steps``: a machine-readable
    #: reason for each step ("evicted: next use of X at step 41", ...).
    #: Empty for plans built without provenance; see ``repro.obs``.
    notes: list[str] = field(default_factory=list)
    #: optional device dimension, parallel to ``steps``: the device index
    #: each step runs on.  Empty for single-device plans (all device 0).
    #: ``PeerCopy`` steps are tagged with their *destination* device.
    devices: list[int] = field(default_factory=list)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    # -- device dimension ------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return max(self.devices, default=0) + 1

    def device_of(self, i: int) -> int:
        """Device index of step ``i`` (0 for single-device plans)."""
        return self.devices[i] if self.devices else 0

    def steps_on(self, device: int) -> list[Step]:
        """The steps that execute on one device, in plan order."""
        if not self.devices:
            return list(self.steps) if device == 0 else []
        return [s for s, d in zip(self.steps, self.devices) if d == device]

    # -- accounting -----------------------------------------------------------
    def _accounting(self, graph: OperatorGraph) -> tuple[int, int, int, int]:
        """(h2d, d2h, peer, launch_count) in one pass over the steps.

        The planner queries these sums repeatedly (candidate comparison,
        tracer spans, metrics); a 100k-step plan makes each re-walk
        noticeable.  The cache key is ``(id(graph), len(steps))`` — plans
        are built append-only and then read, so a stale length always
        invalidates, and plans are never re-accounted against a second
        graph in practice (a different graph object misses the cache).
        """
        key = (id(graph), len(self.steps))
        cached = getattr(self, "_acct_cache", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        h2d = d2h = peer = launches = 0
        data = graph.data
        for s in self.steps:
            if isinstance(s, CopyToGPU):
                h2d += data[s.data].size
            elif isinstance(s, CopyToCPU):
                d2h += data[s.data].size
            elif isinstance(s, Launch):
                launches += 1
            elif isinstance(s, PeerCopy):
                peer += data[s.data].size
        acct = (h2d, d2h, peer, launches)
        self._acct_cache = (key, acct)
        return acct

    def h2d_floats(self, graph: OperatorGraph) -> int:
        return self._accounting(graph)[0]

    def d2h_floats(self, graph: OperatorGraph) -> int:
        return self._accounting(graph)[1]

    def peer_floats(self, graph: OperatorGraph) -> int:
        """Floats moved directly between devices (never through the host)."""
        return self._accounting(graph)[2]

    def launch_count(self, graph: OperatorGraph) -> int:
        return self._accounting(graph)[3]

    def transfer_floats(self, graph: OperatorGraph) -> int:
        """Total host<->device floats moved: the paper's Table 1 metric.

        Peer (device-to-device) traffic is deliberately excluded — it
        never crosses the host interface; see :meth:`peer_floats`.
        """
        acct = self._accounting(graph)
        return acct[0] + acct[1]

    def launches(self) -> list[str]:
        return [s.op for s in self.steps if isinstance(s, Launch)]

    def summary(self, graph: OperatorGraph) -> dict[str, int]:
        h2d, d2h, peer, launches = self._accounting(graph)
        out = {
            "steps": len(self.steps),
            "launches": launches,
            "h2d_floats": h2d,
            "d2h_floats": d2h,
            "transfer_floats": h2d + d2h,
        }
        if self.devices:
            out["devices"] = self.num_devices
            out["peer_floats"] = peer
        return out

    def pretty(self) -> str:
        if not self.devices:
            return "\n".join(str(s) for s in self.steps)
        return "\n".join(
            f"[gpu{d}] {s}" for s, d in zip(self.steps, self.devices)
        )


def validate_plan(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    capacity_floats: int | Sequence[int] | None = None,
) -> int:
    """Check a plan against the graph; returns peak device usage in floats.

    Raises :class:`PlanError` on: device over-capacity, launching with a
    missing input or unexecuted dependency, copying data that is not
    where the step claims, double-launching, or finishing with a template
    output not in host memory.

    Multi-device plans (``plan.devices`` non-empty) are validated with
    residency and capacity tracked *per device*: every launch needs its
    inputs resident on its own device, a ``PeerCopy`` needs the data on
    ``src`` and not on ``dst``.  ``capacity_floats`` may then be a
    per-device sequence; an ``int`` applies uniformly.  The return value
    is the peak usage across all devices.
    """
    ndev = plan.num_devices
    raw_cap = capacity_floats if capacity_floats is not None else plan.capacity_floats
    if isinstance(raw_cap, Sequence):
        caps = list(raw_cap)
        if len(caps) < ndev:
            raise PlanError(
                f"capacity given for {len(caps)} devices, plan uses {ndev}"
            )
    else:
        caps = [raw_cap] * ndev
    if plan.devices and len(plan.devices) != len(plan.steps):
        raise PlanError(
            f"devices list length {len(plan.devices)} != steps {len(plan.steps)}"
        )
    # per-device residency: on_gpu[dev] maps data name -> size in floats
    on_gpu: list[dict[str, int]] = [dict() for _ in range(ndev)]
    on_cpu: set[str] = {
        d for d, ds in graph.data.items() if ds.is_input and not ds.virtual
    }
    executed: set[str] = set()
    peak = 0
    used = [0] * ndev
    for i, step in enumerate(plan.steps):
        dev = plan.device_of(i)
        if not 0 <= dev < ndev:  # pragma: no cover - defensive
            raise PlanError(f"step {i}: device index {dev} out of range")
        if isinstance(step, CopyToGPU):
            d = step.data
            if d in on_gpu[dev]:
                raise PlanError(f"step {i}: h2d of {d!r} already on device {dev}")
            if d not in on_cpu:
                raise PlanError(f"step {i}: h2d of {d!r} not in host memory")
            size = graph.data[d].size
            on_gpu[dev][d] = size
            used[dev] += size
        elif isinstance(step, CopyToCPU):
            d = step.data
            if d not in on_gpu[dev]:
                raise PlanError(f"step {i}: d2h of {d!r} not on device {dev}")
            on_cpu.add(d)
        elif isinstance(step, PeerCopy):
            d = step.data
            if not (0 <= step.src < ndev and 0 <= step.dst < ndev):
                raise PlanError(
                    f"step {i}: p2p of {d!r} between invalid devices "
                    f"{step.src}->{step.dst} (plan has {ndev})"
                )
            if step.src == step.dst:
                raise PlanError(f"step {i}: p2p of {d!r} to same device {step.src}")
            if d not in on_gpu[step.src]:
                raise PlanError(
                    f"step {i}: p2p of {d!r} not on source device {step.src}"
                )
            if d in on_gpu[step.dst]:
                raise PlanError(
                    f"step {i}: p2p of {d!r} already on device {step.dst}"
                )
            size = graph.data[d].size
            on_gpu[step.dst][d] = size
            used[step.dst] += size
        elif isinstance(step, Free):
            d = step.data
            if d not in on_gpu[dev]:
                raise PlanError(f"step {i}: free of {d!r} not on device {dev}")
            used[dev] -= on_gpu[dev].pop(d)
        elif isinstance(step, Launch):
            op = graph.ops.get(step.op)
            if op is None:
                raise PlanError(f"step {i}: unknown operator {step.op!r}")
            if step.op in executed:
                raise PlanError(f"step {i}: operator {step.op!r} launched twice")
            for p in graph.op_predecessors(step.op):
                if p not in executed:
                    raise PlanError(
                        f"step {i}: {step.op!r} launched before dependency {p!r}"
                    )
            for d in op.inputs:
                if d not in on_gpu[dev]:
                    raise PlanError(
                        f"step {i}: {step.op!r} input {d!r} not resident "
                        f"on device {dev}"
                    )
            for d in op.outputs:
                if d in on_gpu[dev]:
                    raise PlanError(
                        f"step {i}: {step.op!r} output {d!r} already resident"
                    )
                size = graph.data[d].size
                on_gpu[dev][d] = size
                used[dev] += size
                on_cpu.discard(d)  # device result supersedes any host copy
            executed.add(step.op)
        else:  # pragma: no cover - defensive
            raise PlanError(f"step {i}: unknown step type {type(step).__name__}")
        for k in (step.src, step.dst) if isinstance(step, PeerCopy) else (dev,):
            if caps[k] and used[k] > caps[k]:
                raise PlanError(
                    f"step {i}: device {k} memory {used[k]} floats exceeds "
                    f"capacity {caps[k]}"
                )
            peak = max(peak, used[k])
    missing_ops = set(graph.ops) - executed
    if missing_ops:
        raise PlanError(f"plan never executes {sorted(missing_ops)[:5]} ...")
    for d, ds in graph.data.items():
        if ds.is_output and not ds.virtual and d not in on_cpu:
            raise PlanError(f"template output {d!r} not in host memory at end")
    return peak
