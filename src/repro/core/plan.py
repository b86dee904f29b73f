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

Plans are checked symbolically by one step-at-a-time machine
(:mod:`repro.core.walk`): memory stays within capacity at every step on
every device, every launch has its inputs resident on its device and its
dependencies executed, and every template output ends up in host memory.
:func:`validate_plan` is that machine alone; every simulator and executor
walks a plan through the same machine, so none of them trusts its plan.
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
    is the peak usage across all devices.  This is the residency machine
    (:mod:`repro.core.walk`) with no observer.
    """
    from .walk import Residency  # the machine decodes this module's steps

    cap = plan.capacity_floats if capacity_floats is None else capacity_floats
    caps = list(cap) if isinstance(cap, Sequence) else [cap] * plan.num_devices
    return max(Residency(graph, caps).walk(plan).peak, default=0)
