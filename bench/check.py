"""Output checks that do not trust the code under test.

* :func:`check_plan` walks a plan's steps with its own residency model
  (capacity never exceeded, every launch input resident, every template
  output copied back, transfer floats re-summed) — it shares no code
  with ``repro.core.plan.validate_plan``.
* :func:`numeric_twin` compiles a scaled-down member of a template's
  family on a proportionally small device, executes it and bit-compares
  the outputs with ``repro.runtime.reference_execute`` (an independent
  host interpreter).
* :func:`plan_digest` is the identity serve workloads compare against a
  direct ``repro.compile`` of the same template.

Each function returns a list of problems; empty means the check passed.
Step kinds are matched by class name so the checker imports nothing
from the planner.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Sequence

import numpy as np

import repro
from repro.core import plan_to_dict
from repro.runtime import reference_execute


def check_plan(
    plan: Any,
    graph: Any,
    capacity_floats: int | Sequence[int],
    *,
    transfer_floats: int | None = None,
) -> list[str]:
    """Independent feasibility walk over ``plan.steps``."""
    problems: list[str] = []
    devices = list(getattr(plan, "devices", ())) or [0] * len(plan.steps)
    ndev = max(devices, default=0) + 1
    caps = (
        [int(capacity_floats)] * ndev
        if isinstance(capacity_floats, int)
        else [int(c) for c in capacity_floats]
    )
    size = {name: ds.size for name, ds in graph.data.items()}
    resident: list[dict[str, int]] = [dict() for _ in range(ndev)]
    used = [0] * ndev
    on_host = {
        n for n, ds in graph.data.items() if ds.is_input and not ds.virtual
    }
    launched: set[str] = set()
    moved = 0
    for i, (step, dev) in enumerate(zip(plan.steps, devices)):
        kind = type(step).__name__
        if kind == "CopyToGPU":
            if step.data not in on_host:
                problems.append(f"step {i}: upload of {step.data} not on host")
            resident[dev][step.data] = size[step.data]
            used[dev] += size[step.data]
            moved += size[step.data]
        elif kind == "CopyToCPU":
            if step.data not in resident[dev]:
                problems.append(f"step {i}: download of absent {step.data}")
            on_host.add(step.data)
            moved += size[step.data]
        elif kind == "PeerCopy":
            if step.data not in resident[step.src]:
                problems.append(f"step {i}: peer copy of absent {step.data}")
            resident[step.dst][step.data] = size[step.data]
            used[step.dst] += size[step.data]
            dev = step.dst
        elif kind == "Free":
            if step.data not in resident[dev]:
                problems.append(f"step {i}: free of absent {step.data}")
            else:
                used[dev] -= resident[dev].pop(step.data)
        elif kind == "Launch":
            op = graph.ops.get(step.op)
            if op is None or step.op in launched:
                problems.append(f"step {i}: bad launch {step.op}")
                continue
            launched.add(step.op)
            for name in op.inputs:
                if name not in resident[dev]:
                    problems.append(
                        f"step {i}: {step.op} input {name} not resident"
                    )
            for name in op.outputs:
                resident[dev][name] = size[name]
                used[dev] += size[name]
                on_host.discard(name)
        else:
            problems.append(f"step {i}: unknown step kind {kind}")
        if used[dev] > caps[dev]:
            problems.append(
                f"step {i}: device {dev} holds {used[dev]} > {caps[dev]} floats"
            )
        if len(problems) > 8:
            return problems
    if launched != set(graph.ops):
        problems.append(f"{len(set(graph.ops) - launched)} operators never launched")
    for name, ds in graph.data.items():
        if ds.is_output and not ds.virtual and name not in on_host:
            problems.append(f"output {name} never copied back")
    if transfer_floats is not None and moved != transfer_floats:
        problems.append(
            f"re-summed transfers {moved} != reported {transfer_floats}"
        )
    return problems


def outputs_equal(
    got: Mapping[str, np.ndarray], want: Mapping[str, np.ndarray]
) -> bool:
    """Bit equality of two output sets (same names, shapes, bytes)."""
    if set(got) != set(want):
        return False
    return all(
        got[k].shape == want[k].shape
        and np.asarray(got[k]).tobytes() == np.asarray(want[k]).tobytes()
        for k in want
    )


def numeric_twin(template: Any, inputs: Mapping[str, np.ndarray], device: Any,
                 options: Any = None) -> list[str]:
    """Compile + execute a small family member; compare with the host
    reference interpreter and run the independent plan walk."""
    compiled = repro.compile(
        template, device=device, options=options, plan_cache=False
    )
    problems = check_plan(
        compiled.plan,
        compiled.graph,
        device.usable_memory_floats,
        transfer_floats=compiled.transfer_floats(),
    )
    result = repro.execute(compiled, inputs)
    # Bit equality holds against the reference run of the same (split)
    # graph; against the unsplit template einsum's summation order can
    # differ in the last bit, so that comparison is to float32 tolerance.
    if not outputs_equal(result.outputs, reference_execute(compiled.graph, inputs)):
        problems.append(f"twin {template.name}: outputs differ from reference")
    unsplit = reference_execute(template, inputs)
    if not all(np.allclose(result.outputs[k], unsplit[k], rtol=1e-5, atol=1e-5)
               for k in unsplit):
        problems.append(f"twin {template.name}: outputs far from unsplit reference")
    return problems


def plan_digest(plan: Any) -> str:
    """Content hash of a plan's serialised form."""
    blob = json.dumps(plan_to_dict(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
