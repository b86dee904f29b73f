"""The dynamic executor's own step loop, kept as the oracle for
``repro.runtime.dynamic``.

This is the run-time library as it was before its decisions became a
plan (``repro.core.online_plan``) executed by the synchronous walker:
on-demand uploads, least-recently-touched eviction and reference-counted
frees, issued straight to the simulated runtime.  Its behaviour is the
specification: for every template, device, host and operator order,
:mod:`repro.runtime.dynamic` must return the same outputs bit for bit,
the same transfer counts, clock and thrash flag, and record the same
profile events (``tests/test_dynamic_oracle.py``).  Two behaviours of
this loop were defects and are not reproduced: it never sets the host
working set, so it never models host paging, and a second ``run()``
reuses the first run's host copies and transfer counts.  Do not change
the behaviour of this file.

The original module docstring follows.

Dynamic run-time orchestration (Section 3.3.2's closing alternative).

"Alternatively, it is also possible to use a simple run-time library to
orchestrate execution of the corresponding templates on the GPU."

This is that library: instead of interpreting a statically derived
execution plan, it walks the operator graph at run time, transferring
inputs on demand, evicting under an *online* policy (LRU — no future
knowledge, unlike the static scheduler's Belady), and freeing data by
reference counting (a value dies when its last consumer has executed).

It serves two purposes: a simpler deployment path (no compilation
beyond splitting), and the baseline that quantifies what static
plan-ahead buys — the static Belady plan never transfers more than this
online executor (demonstrated in tests and the dynamic-vs-static
ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.graph import OperatorGraph, op_slots
from repro.gpusim import FLOAT_BYTES, SimRuntime
from repro.ops import get_impl, launch_cost

from repro.runtime.assemble import assemble_root, gather_slot, input_chunk_array, scatter_outputs
from repro.runtime.executor import ExecutionResult


@dataclass
class _Entry:
    size_floats: int
    last_touch: int
    host_valid: bool
    refs_left: int  # launches still to read this data
    is_output: bool


class DynamicExecutor:
    """Run-time graph orchestration on a simulated device."""

    def __init__(
        self,
        graph: OperatorGraph,
        runtime: SimRuntime,
        *,
        headroom_floats: int = 0,
    ) -> None:
        self.graph = graph
        self.rt = runtime
        self.capacity = (
            runtime.device.usable_memory_floats - headroom_floats
        )
        self._tick = 0
        self._resident: dict[str, _Entry] = {}
        self._host: dict[str, np.ndarray] = {}
        self._h2d_floats = 0
        self._d2h_floats = 0

    # -- host/device movement ------------------------------------------------
    def _host_fetch(self, name: str, template_inputs) -> np.ndarray:
        if name not in self._host:
            ds = self.graph.data[name]
            if not ds.is_input:
                raise KeyError(f"{name!r} requested before being produced")
            self._host[name] = input_chunk_array(
                self.graph, name, template_inputs
            )
        return self._host[name]

    def _evict_one(self, pinned: set[str]) -> None:
        candidates = [d for d in self._resident if d not in pinned]
        if not candidates:
            raise RuntimeError(
                "dynamic executor: all resident data pinned; operator "
                "footprint exceeds device capacity (split the template)"
            )
        victim = min(candidates, key=lambda d: self._resident[d].last_touch)
        entry = self._resident.pop(victim)
        if not entry.host_valid and (entry.refs_left > 0 or entry.is_output):
            self._host[victim] = self.rt.memcpy_d2h(victim)
            self._d2h_floats += entry.size_floats
        self.rt.free(victim)

    def _make_room(self, need_floats: int, pinned: set[str]) -> None:
        used = sum(e.size_floats for e in self._resident.values())
        while used + need_floats > self.capacity:
            before = len(self._resident)
            self._evict_one(pinned)
            used = sum(e.size_floats for e in self._resident.values())
            if len(self._resident) == before:  # pragma: no cover - defensive
                raise RuntimeError("eviction made no progress")

    def _ensure_resident(
        self, name: str, pinned: set[str], template_inputs
    ) -> None:
        if name in self._resident:
            self._resident[name].last_touch = self._tick
            return
        ds = self.graph.data[name]
        self._make_room(ds.size, pinned)
        arr = self._host_fetch(name, template_inputs)
        self.rt.malloc(name, ds.size * FLOAT_BYTES)
        self.rt.memcpy_h2d(name, arr)
        self._h2d_floats += ds.size
        self._resident[name] = _Entry(
            size_floats=ds.size,
            last_touch=self._tick,
            host_valid=True,
            refs_left=self._refs[name],
            is_output=ds.is_output,
        )

    # -- main loop -----------------------------------------------------------
    def run(
        self,
        template_inputs: Mapping[str, np.ndarray],
        op_order: Sequence[str] | None = None,
    ) -> ExecutionResult:
        graph = self.graph
        order = (
            list(op_order) if op_order is not None else graph.topological_order()
        )
        # Reference counts: reads remaining per data structure.
        self._refs = {d: 0 for d in graph.data}
        for o in order:
            for d in graph.ops[o].inputs:
                self._refs[d] += 1
        for op_name in order:
            self._tick += 1
            op = graph.ops[op_name]
            impl = get_impl(op.kind)
            ins = list(dict.fromkeys(op.inputs))
            outs = list(dict.fromkeys(op.outputs))
            pinned = set(ins) | set(outs)
            for d in ins:
                self._ensure_resident(d, pinned, template_inputs)
            out_floats = sum(graph.data[d].size for d in outs)
            self._make_room(out_floats, pinned)
            inputs = [
                gather_slot(graph, s, self.rt.read_device)
                for s in op_slots(op, graph)
            ]
            results = impl.execute(op, inputs)

            def put(name: str, array: np.ndarray) -> None:
                self.rt.malloc(name, graph.data[name].size * FLOAT_BYTES)
                self.rt.write_device(name, array)
                self._resident[name] = _Entry(
                    size_floats=graph.data[name].size,
                    last_touch=self._tick,
                    host_valid=False,
                    refs_left=self._refs[name],
                    is_output=graph.data[name].is_output,
                )

            scatter_outputs(graph, op, results, put)
            self.rt.launch(op_name, *launch_cost(op, graph))
            # Reference counting: retire inputs whose last read this was.
            for d in ins:
                self._refs[d] -= 1
                entry = self._resident.get(d)
                if entry is not None:
                    entry.refs_left = self._refs[d]
                    if self._refs[d] == 0 and not entry.is_output:
                        self.rt.free(d)
                        del self._resident[d]
            # Outputs nobody reads (and that are not template outputs).
            for d in outs:
                if self._refs[d] == 0 and not graph.data[d].is_output:
                    self.rt.free(d)
                    del self._resident[d]
        # Drain: save template outputs still on device.
        for d in list(self._resident):
            entry = self._resident[d]
            if entry.is_output and not entry.host_valid:
                self._host[d] = self.rt.memcpy_d2h(d)
                self._d2h_floats += entry.size_floats
            self.rt.free(d)
            del self._resident[d]
        outputs = {
            name: assemble_root(graph, name, lambda n: self._host[n])
            for name, ds in graph.data.items()
            if ds.is_output and ds.parent is None
        }
        prof = self.rt.profile
        return ExecutionResult(
            outputs=outputs,
            elapsed=self.rt.clock,
            transfer_time=prof.transfer_time,
            compute_time=prof.compute_time,
            h2d_floats=self._h2d_floats,
            d2h_floats=self._d2h_floats,
            thrashed=self.rt.thrashed,
        )


def dynamic_execute(
    graph: OperatorGraph,
    runtime: SimRuntime,
    template_inputs: Mapping[str, np.ndarray],
    op_order: Sequence[str] | None = None,
) -> ExecutionResult:
    """Convenience wrapper over :class:`DynamicExecutor`."""
    return DynamicExecutor(graph, runtime).run(template_inputs, op_order)
