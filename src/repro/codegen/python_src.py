"""Python code generator.

Turns an execution plan into a *standalone* Python program: a flat
sequence of runtime calls (malloc / memcpy / kernel / free) with every
name, size and region baked in as a literal — the moral equivalent of the
paper's generated hybrid CPU/GPU program, targeting the simulated device
instead of CUDA.  The generated module exposes::

    run(template_inputs: dict[str, np.ndarray],
        device=...) -> dict[str, np.ndarray]

and is directly ``exec``-utable (the test suite compiles and runs
generated programs and checks them against the host reference).
"""

from __future__ import annotations

import io

from repro.core.graph import OperatorGraph, op_out_specs, op_slots
from repro.core.plan import CopyToCPU, CopyToGPU, ExecutionPlan, Free, Launch
from repro.core.splitting import chunk_range, chunks_of
from repro.gpusim import GpuDevice
from repro.ops import launch_cost

_CODEGEN_PARAM_KEYS = (
    "mode",
    "factor",
    "weight",
    "bias",
    "fn",
    "weights",
    "gain",
    "out_range",
    "in_rows",
)


def _literal_params(op) -> dict:
    out = {}
    for k in _CODEGEN_PARAM_KEYS:
        if k in op.params:
            out[k] = op.params[k]
    return out


def _chunk_refs(graph: OperatorGraph, names) -> list[tuple[str, int, int]]:
    refs = []
    for n in names:
        a, b = chunk_range(graph, n)
        refs.append((n, a, b))
    return refs


def generate_python(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    device: GpuDevice,
    *,
    function_name: str = "run",
) -> str:
    """Emit the program text for a plan."""
    w = io.StringIO()
    w.write(
        '"""Generated hybrid CPU/GPU program.\n\n'
        f"Template: {graph.name}\n"
        f"Target device: {device.name} "
        f"({device.memory_bytes // (1 << 20)} MB)\n"
        f"Plan: {len(plan.steps)} steps, "
        f"{plan.transfer_floats(graph)} floats transferred\n"
        '"""\n\n'
    )
    w.write("import numpy as np\n\n")
    w.write("from repro.codegen.support import (\n")
    w.write("    d2h, exec_op, h2d, slice_input, stitch_output,\n")
    w.write(")\n")
    w.write("from repro.gpusim import GpuDevice, SimRuntime\n\n\n")
    w.write(f"DEVICE = {device!r}\n\n\n")
    w.write(f"def {function_name}(template_inputs, device=None):\n")
    w.write('    """Execute the compiled template; returns its outputs."""\n')
    w.write("    rt = SimRuntime(device or DEVICE)\n")
    w.write("    host = {k: np.asarray(v, dtype=np.float32)\n")
    w.write("            for k, v in template_inputs.items()}\n")
    # Pre-slice template-input chunks referenced by the plan.
    sliced: set[str] = set()
    for step in plan.steps:
        if isinstance(step, CopyToGPU):
            ds = graph.data[step.data]
            if ds.is_input and ds.parent is not None and step.data not in sliced:
                sliced.add(step.data)
                r0, r1 = ds.row_range
                w.write(
                    f"    slice_input(host, {step.data!r}, {ds.parent!r}, "
                    f"{r0}, {r1})\n"
                )
    for step in plan.steps:
        if isinstance(step, CopyToGPU):
            size = graph.data[step.data].size
            w.write(f"    h2d(rt, host, {step.data!r}, {size})\n")
        elif isinstance(step, CopyToCPU):
            w.write(f"    d2h(rt, host, {step.data!r})\n")
        elif isinstance(step, Free):
            w.write(f"    rt.free({step.data!r})\n")
        elif isinstance(step, Launch):
            op = graph.ops[step.op]
            flops, bytes_accessed = launch_cost(op, graph)
            in_specs = [
                (s.rows, _chunk_refs(graph, s.chunks))
                for s in op_slots(op, graph)
            ]
            out_specs = [
                (
                    spec.rng[0],
                    spec.rng[1],
                    [(n, r[0], r[1]) for n, r in spec.chunks],
                )
                for spec in op_out_specs(op, graph)
            ]
            w.write(
                f"    exec_op(rt, {step.op!r}, {op.kind!r}, "
                f"{_literal_params(op)!r},\n"
                f"            {in_specs!r},\n"
                f"            {out_specs!r},\n"
                f"            flops={flops!r}, bytes_accessed={bytes_accessed!r})\n"
            )
    # Stitch chunked template outputs back together.
    for name, ds in graph.data.items():
        if not ds.is_output or ds.parent is not None:
            continue
        chunks = chunks_of(graph, name)
        if chunks != [name]:
            refs = _chunk_refs(graph, chunks)
            w.write(f"    stitch_output(host, {name!r}, {refs!r})\n")
    outputs = [
        n
        for n, ds in graph.data.items()
        if ds.is_output and ds.parent is None
    ]
    w.write("    result = {n: host[n] for n in " + repr(outputs) + "}\n")
    w.write("    result['__profile__'] = rt.profile\n")
    w.write("    result['__elapsed__'] = rt.clock\n")
    w.write("    return result\n")
    return w.getvalue()
