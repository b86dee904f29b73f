"""Serialization of graphs and execution plans (JSON).

An execution plan is the compiler's product; persisting it decouples
compilation from execution ("compile once, deploy to the runtime
library"), enables inspection/diffing of plans, and gives the generated
programs a stable sidecar format.  Everything the executor needs — the
split graph (including slot/out-spec region metadata) and the step
sequence — round-trips losslessly.  A loaded graph is frozen.

Versioning
----------
Serialized plans carry a ``schema_version`` of the form
``"<major>.<minor>"`` (:data:`SCHEMA_VERSION`).  The loader accepts any
minor of the current major — minors are additive (new optional keys),
so a reader of minor N understands every minor of the same major — and
rejects other majors with an actionable error.  Plans written before
versioning existed (no ``schema_version`` key) are read as ``"1.0"``.

Bump the *minor* when adding optional keys; bump the *major* when a key
changes meaning or is removed.  After a schema bump, regenerate the
golden fixtures once (``REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest
tests/test_golden_plans.py``) and commit them with the change — see
docs/TESTING.md.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from .graph import OperatorGraph, OutSpec, Slot

if TYPE_CHECKING:  # avoid a cycle: framework -> plancache -> serialize
    from .framework import CompiledTemplate
from .plan import CopyToCPU, CopyToGPU, ExecutionPlan, Free, Launch, PeerCopy, Step

FORMAT_VERSION = 1

SCHEMA_MAJOR = 1
SCHEMA_MINOR = 1
SCHEMA_VERSION = f"{SCHEMA_MAJOR}.{SCHEMA_MINOR}"


def _check_schema_version(raw: dict[str, Any]) -> None:
    """Validate a plan dict's ``schema_version`` against the reader's."""
    version = raw.get("schema_version", "1.0")
    try:
        major = int(str(version).split(".", 1)[0])
    except ValueError:
        raise ValueError(
            f"malformed plan schema_version {version!r} "
            f"(expected '<major>.<minor>', e.g. {SCHEMA_VERSION!r})"
        ) from None
    if major != SCHEMA_MAJOR:
        raise ValueError(
            f"plan was written with schema version {version} but this "
            f"reader supports major {SCHEMA_MAJOR} ({SCHEMA_VERSION}); "
            f"re-compile the template with this version of repro, or load "
            f"the plan with a repro release whose schema major is {major}"
        )

_STEP_TYPES = {
    "h2d": CopyToGPU,
    "d2h": CopyToCPU,
    "exec": Launch,
    "free": Free,
}


# ---------------------------------------------------------------------------
# Graph <-> dict
# ---------------------------------------------------------------------------
def _params_to_dict(params: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in params.items():
        if key == "slots":
            out[key] = [
                {"root": s.root, "rows": s.rows, "chunks": list(s.chunks)}
                for s in value
            ]
        elif key == "out_specs":
            out[key] = [
                {
                    "root": s.root,
                    "rng": list(s.rng),
                    "chunks": [[n, list(r)] for n, r in s.chunks],
                }
                for s in value
            ]
        else:
            out[key] = value
    return out


def _params_from_dict(raw: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in raw.items():
        if key == "slots":
            out[key] = [
                Slot(
                    root=s["root"],
                    rows=tuple(s["rows"]) if s["rows"] is not None else None,
                    chunks=list(s["chunks"]),
                )
                for s in value
            ]
        elif key == "out_specs":
            out[key] = [
                OutSpec(
                    root=s["root"],
                    rng=tuple(s["rng"]),
                    chunks=[(n, tuple(r)) for n, r in s["chunks"]],
                )
                for s in value
            ]
        elif key in ("out_range",) and value is not None:
            out[key] = tuple(value)
        else:
            out[key] = value
    return out


def graph_to_dict(graph: OperatorGraph) -> dict[str, Any]:
    return {
        "name": graph.name,
        "data": [
            {
                "name": ds.name,
                "shape": list(ds.shape),
                "is_input": ds.is_input,
                "is_output": ds.is_output,
                "parent": ds.parent,
                "row_range": list(ds.row_range) if ds.row_range else None,
                "virtual": ds.virtual,
            }
            for ds in graph.data.values()
        ],
        "ops": [
            {
                "name": op.name,
                "kind": op.kind,
                "inputs": list(op.inputs),
                "outputs": list(op.outputs),
                "params": _params_to_dict(op.params),
            }
            for op in graph.ops.values()
        ],
    }


def graph_from_dict(raw: dict[str, Any]) -> OperatorGraph:
    g = OperatorGraph(raw["name"])
    for d in raw["data"]:
        g.add_data(
            d["name"],
            tuple(d["shape"]),
            is_input=d["is_input"],
            is_output=d["is_output"],
            parent=d["parent"],
            row_range=tuple(d["row_range"]) if d["row_range"] else None,
            virtual=d["virtual"],
        )
    for o in raw["ops"]:
        g.add_operator(
            o["name"],
            o["kind"],
            o["inputs"],
            o["outputs"],
            **_params_from_dict(o["params"]),
        )
    return g.freeze()


# ---------------------------------------------------------------------------
# Plan <-> dict
# ---------------------------------------------------------------------------
def plan_to_dict(plan: ExecutionPlan) -> dict[str, Any]:
    steps = []
    for step in plan.steps:
        if isinstance(step, Launch):
            steps.append(["exec", step.op])
        elif isinstance(step, CopyToGPU):
            steps.append(["h2d", step.data])
        elif isinstance(step, CopyToCPU):
            steps.append(["d2h", step.data])
        elif isinstance(step, Free):
            steps.append(["free", step.data])
        elif isinstance(step, PeerCopy):
            steps.append(["p2p", step.data, step.src, step.dst])
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown step type {type(step).__name__}")
    out: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "capacity_floats": plan.capacity_floats,
        "label": plan.label,
        "steps": steps,
    }
    if plan.notes:
        out["notes"] = list(plan.notes)
    if plan.devices:
        out["devices"] = list(plan.devices)
    return out


def plan_from_dict(raw: dict[str, Any]) -> ExecutionPlan:
    _check_schema_version(raw)
    steps: list[Step] = []
    for entry in raw["steps"]:
        kind, arg = entry[0], entry[1]
        if kind == "p2p":
            steps.append(PeerCopy(arg, entry[2], entry[3]))
        else:
            steps.append(_STEP_TYPES[kind](arg))
    return ExecutionPlan(
        steps=steps,
        capacity_floats=raw["capacity_floats"],
        label=raw.get("label", ""),
        notes=list(raw.get("notes", [])),
        devices=list(raw.get("devices", [])),
    )


# ---------------------------------------------------------------------------
# Compiled template <-> file
# ---------------------------------------------------------------------------
def compiled_to_dict(compiled: CompiledTemplate) -> dict[str, Any]:
    return {
        "format_version": FORMAT_VERSION,
        "device": {
            "name": compiled.device.name,
            "memory_bytes": compiled.device.memory_bytes,
        },
        "graph": graph_to_dict(compiled.graph),
        "plan": plan_to_dict(compiled.plan),
        "op_order": list(compiled.op_order),
        "peak_device_floats": compiled.peak_device_floats,
    }


def save_plan(compiled: CompiledTemplate, path: str) -> None:
    """Write a compiled template (graph + plan) as JSON."""
    with open(path, "w") as fh:
        json.dump(compiled_to_dict(compiled), fh, indent=1)


def load_plan(path: str) -> tuple[OperatorGraph, ExecutionPlan]:
    """Read a compiled template back; returns (graph, plan)."""
    with open(path) as fh:
        raw = json.load(fh)
    if raw.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported plan format {raw.get('format_version')!r}"
        )
    return graph_from_dict(raw["graph"]), plan_from_dict(raw["plan"])
