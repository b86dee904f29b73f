"""Gather/scatter between logical arrays and chunk data structures.

Split operators read *regions* of logical arrays that are physically
stored as chunk data structures (Section 3.2's size-and-offset
computation).  These helpers reassemble a slot's input region from the
chunks holding it, and scatter an operator's logical output rows into
the chunk buffers it produces.  They are shared by the reference
executor, the plan executor and the generated Python programs.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.graph import Operator, OperatorGraph, Slot, op_out_specs


def gather_slot(
    graph: OperatorGraph,
    slot: Slot,
    fetch: Callable[[str], np.ndarray],
) -> np.ndarray:
    """Assemble the input region a slot describes.

    ``fetch`` maps a concrete data-structure name to its array (host dict,
    device buffer, ...).  Chunks tile the root contiguously, so the
    selected chunks vstack into a contiguous block covering the slot rows.
    """
    if not slot.chunks:
        raise ValueError(f"slot on {slot.root!r} has no chunks")
    chunks = sorted(
        slot.chunks,
        key=lambda n: graph.data[n].row_range or (0, graph.data[n].rows),
    )
    arrays = [fetch(n) for n in chunks]
    block = arrays[0] if len(arrays) == 1 else np.vstack(arrays)
    first = graph.data[chunks[0]]
    start = first.row_range[0] if first.row_range else 0
    if slot.rows is None:
        return block
    a, b = slot.rows
    if a == start and b == start + block.shape[0]:
        return block
    if a < start or b > start + block.shape[0]:
        raise ValueError(
            f"slot rows {slot.rows} not covered by chunks of {slot.root!r} "
            f"(covered [{start}, {start + block.shape[0]}))"
        )
    return block[a - start : b - start]


def scatter_outputs(
    graph: OperatorGraph,
    op: Operator,
    results: Sequence[np.ndarray],
    store: Callable[[str, np.ndarray], None],
) -> None:
    """Distribute logical output rows into the operator's chunk buffers."""
    specs = op_out_specs(op, graph)
    if len(results) != len(specs):
        raise ValueError(
            f"{op.name}: produced {len(results)} arrays for {len(specs)} outputs"
        )
    for spec, arr in zip(specs, results):
        a, b = spec.rng
        if arr.shape[0] != b - a:
            raise ValueError(
                f"{op.name}: output rows {arr.shape[0]} != range {spec.rng}"
            )
        for name, (c0, c1) in spec.chunks:
            store(name, np.ascontiguousarray(arr[c0 - a : c1 - a]))


def input_chunk_array(
    graph: OperatorGraph,
    name: str,
    template_inputs: Mapping[str, np.ndarray],
) -> np.ndarray:
    """Host array for a (possibly chunked) template-input data structure;
    ``ValueError`` if the given root array has another shape than declared."""
    ds = graph.data[name]
    root = ds.parent or name
    array = np.asarray(template_inputs[root], dtype=np.float32)
    if array.shape != graph.data[root].shape:
        raise ValueError(
            f"template input {root!r}: declared shape {graph.data[root].shape}, "
            f"given {array.shape}"
        )
    return array if ds.parent is None else array[slice(*ds.row_range)]


def assemble_root(
    graph: OperatorGraph,
    root: str,
    fetch: Callable[[str], np.ndarray],
) -> np.ndarray:
    """Reassemble a full logical array from its chunks (template outputs)."""
    from repro.core.splitting import chunk_range, chunks_of

    names = chunks_of(graph, root)
    if names == [root]:
        return fetch(root)
    parts = []
    expected = 0
    for n in names:
        a, b = chunk_range(graph, n)
        if a != expected:
            raise ValueError(f"chunks of {root!r} do not tile it (gap at {a})")
        expected = b
        parts.append(fetch(n))
    if expected != graph.data[root].rows:
        raise ValueError(f"chunks of {root!r} do not cover all rows")
    return np.vstack(parts)
