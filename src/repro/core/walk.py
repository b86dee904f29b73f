"""The residency machine: one checked walk over an execution plan.

:class:`Residency` owns what every pass over a plan needs before each
step — per-device resident maps, used and peak floats, host validity and
the executed set — and decodes each step's type for all of them.  It
checks each step, raising :class:`~repro.core.plan.PlanError` at the
first violation, applies it, and only then hands it to an observer: any
object with some of the hooks ``h2d``, ``d2h`` and ``free(i, dev, name,
size)``, ``p2p(i, name, src, dst, size)`` and ``launch(i, dev, op)``.
``validate_plan`` is the machine with no observer; the synchronous
walkers (clock and payload observers), the event engine's builder
(dependencies) and ``plan_timeline`` (snapshots) each add one, so no
path runs a plan the machine has not checked.
"""

from __future__ import annotations

import math
from itertools import repeat
from types import SimpleNamespace
from typing import Sequence

from .graph import OperatorGraph
from .plan import CopyToCPU, CopyToGPU, ExecutionPlan, Free, Launch, PeerCopy, PlanError

#: each step type's hook name: the one table that decodes a step
HOOKS = {CopyToGPU: "h2d", CopyToCPU: "d2h", PeerCopy: "p2p", Free: "free", Launch: "launch"}

#: an observer made of hook functions given by keyword
Observer = SimpleNamespace


def _skip(*_: object) -> None:
    """The hook an observer lacks."""


class Residency:
    """The state of one plan walk; ``caps[k]`` bounds device ``k`` in
    floats (0: unbounded), and ``peak[k]`` is its largest footprint."""

    def __init__(self, graph: OperatorGraph, caps: Sequence[int]) -> None:
        self.graph, self.caps = graph, list(caps)
        self.resident: list[dict[str, int]] = [{} for _ in self.caps]
        self.used, self.peak = [0] * len(self.caps), [0] * len(self.caps)
        self.on_host = {d for d, ds in graph.data.items() if ds.is_input and not ds.virtual}
        self.executed: set[str] = set()

    def walk(self, plan: ExecutionPlan, observer: object = None) -> Residency:
        """Check, apply and observe every step, then the end state."""
        graph, ndev = self.graph, len(self.caps)
        if plan.num_devices > ndev:
            raise PlanError(f"capacity given for {ndev} devices, plan uses {plan.num_devices}")
        if plan.devices and len(plan.devices) != len(plan.steps):
            raise PlanError(f"devices list length {len(plan.devices)} != steps {len(plan.steps)}")
        on_h2d, on_d2h, on_p2p, on_free, on_launch = (
            getattr(observer, hook, None) or _skip for hook in HOOKS.values()
        )
        sizes, ops, kind_of = graph.data_sizes(), graph.ops, HOOKS.get
        resident, used, peak = self.resident, self.used, self.peak
        on_host, executed = self.on_host, self.executed
        for i, (step, dev) in enumerate(zip(plan.steps, plan.devices or repeat(0))):
            if not 0 <= dev < ndev:
                raise PlanError(f"step {i}: device index {dev} out of range")
            kind, res = kind_of(type(step)), resident[dev]
            if kind == "launch":
                name = step.op
                op = ops.get(name)
                if op is None:
                    raise PlanError(f"step {i}: unknown operator {name!r}")
                if name in executed:
                    raise PlanError(f"step {i}: operator {name!r} launched twice")
                for d in op.inputs:
                    if d not in res:
                        raise self._not_resident(i, name, d, dev)
                u = used[dev]
                for d in op.outputs:
                    if d in res:
                        raise PlanError(f"step {i}: {name!r} output {d!r} already resident")
                    u += sizes[d]
                    res[d] = sizes[d]
                    on_host.discard(d)  # device result supersedes any host copy
                executed.add(name)
                if u > peak[dev]:
                    self._new_peak(i, dev, u)
                used[dev] = u
                on_launch(i, dev, op)
            elif kind == "h2d":
                d = step.data
                if d in res:
                    raise PlanError(f"step {i}: h2d of {d!r} already on device {dev}")
                if d not in on_host:
                    raise PlanError(f"step {i}: h2d of {d!r} not in host memory")
                size = res[d] = sizes[d]
                u = used[dev] = used[dev] + size
                if u > peak[dev]:
                    self._new_peak(i, dev, u)
                on_h2d(i, dev, d, size)
            elif kind == "free":
                size = res.pop(step.data, None)
                if size is None:
                    raise PlanError(f"step {i}: free of {step.data!r} not on device {dev}")
                used[dev] -= size
                on_free(i, dev, step.data, size)
            elif kind == "d2h":
                size = res.get(step.data)
                if size is None:
                    raise PlanError(f"step {i}: d2h of {step.data!r} not on device {dev}")
                on_host.add(step.data)
                on_d2h(i, dev, step.data, size)
            elif kind == "p2p":
                d, src, dst = step.data, step.src, step.dst
                if not (0 <= src < ndev and 0 <= dst < ndev):
                    raise PlanError(
                        f"step {i}: p2p of {d!r} between invalid devices "
                        f"{src}->{dst} (plan has {ndev})"
                    )
                if src == dst:
                    raise PlanError(f"step {i}: p2p of {d!r} to same device {src}")
                if d not in resident[src]:
                    raise PlanError(f"step {i}: p2p of {d!r} not on source device {src}")
                if d in resident[dst]:
                    raise PlanError(f"step {i}: p2p of {d!r} already on device {dst}")
                size = resident[dst][d] = sizes[d]
                u = used[dst] = used[dst] + size
                if u > peak[dst]:
                    self._new_peak(i, dst, u)
                on_p2p(i, d, src, dst, size)
            else:
                raise PlanError(f"step {i}: unknown step type {type(step).__name__}")
        if len(executed) != len(ops):
            raise PlanError(f"plan never executes {sorted(set(ops) - executed)[:5]} ...")
        for d, ds in graph.data.items():
            if ds.is_output and not ds.virtual and d not in on_host:
                raise PlanError(f"template output {d!r} not in host memory at end")
        return self

    def _new_peak(self, i: int, dev: int, used: int) -> None:
        """Only a new peak can break the capacity (0: unbounded)."""
        if used > (self.caps[dev] or math.inf):
            raise PlanError(
                f"step {i}: device {dev} memory {used} floats exceeds "
                f"capacity {self.caps[dev]}"
            )
        self.peak[dev] = used

    def _not_resident(self, i: int, name: str, d: str, dev: int) -> PlanError:
        """A datum reaches a device only through its producer's launch, so
        an unexecuted dependency always first shows as a missing input:
        it is named here, as the validator always has, in order."""
        for p in self.graph.op_predecessors(name):
            if p not in self.executed:
                return PlanError(f"step {i}: {name!r} launched before dependency {p!r}")
        return PlanError(f"step {i}: {name!r} input {d!r} not resident on device {dev}")
