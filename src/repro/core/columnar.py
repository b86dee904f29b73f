"""Columnar planner IR: flat tables lowered from the object graph.

Walking ``OperatorGraph`` dataclasses — dict lookups, attribute access
and per-node allocation — dominates compile time once graphs reach the
10k-operator regime the compile-scaling benchmark tracks.  :func:`lower`
turns a (split) graph once into flat tables — an *operator table*, a
*data table*, and CSR-style adjacency — and the planner runs on them:
the depth-first operator schedules (:mod:`repro.core.scheduling`) and
the transfer scheduler (:mod:`repro.core.transfers`) walk integer ids
and emit names, so the tables never leak into the plan format.

``tests/reference_planner.py`` keeps a small dict-based planner over the
object graph as the oracle; the differential matrix and a hypothesis
property pin this engine byte-identical to it (steps *and* provenance
notes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import OperatorGraph


@dataclass(slots=True)
class ColumnarGraph:
    """Flat-table view of one :class:`OperatorGraph`.

    Integer ids are assignment order (= dict insertion order, the
    deterministic tiebreak every traversal already uses).  Name lists
    map ids back to strings; plans and provenance notes are emitted in
    terms of names, so the tables never leak into the plan format.
    """

    # -- data table ---------------------------------------------------------
    data_names: list[str]
    data_id: dict[str, int]
    #: floats per datum
    data_size: list[int]
    #: template output *and* concrete (virtual chunks roots are False,
    #: matching the transfer scheduler's ``is_output`` map)
    data_is_output: list[bool]
    # -- operator table -----------------------------------------------------
    op_names: list[str]
    op_id: dict[str, int]
    #: ``params["out_range"][0]`` or 0 — ``dfs_schedule``'s root sort key
    band_start: np.ndarray
    # -- adjacency (CSR over ids) -------------------------------------------
    #: raw inputs, duplicates and order preserved (use-time analysis)
    in_ptr: np.ndarray
    in_ids: np.ndarray
    #: inputs/outputs deduplicated in first-occurrence order
    uin_ptr: list[int]
    uin_ids: list[int]
    uout_ptr: list[int]
    uout_ids: list[int]
    #: operator-level predecessors/successors, deduplicated,
    #: first-occurrence order (mirrors ``op_predecessors``/``op_successors``)
    pred_counts: list[int]
    succ_ptr: list[int]
    succ_ids: list[int]

    @property
    def n_data(self) -> int:
        return len(self.data_names)

    @property
    def n_ops(self) -> int:
        return len(self.op_names)


def lower(graph: OperatorGraph) -> ColumnarGraph:
    """Lower an operator graph into its columnar tables (one O(V+E) pass)."""
    data_names = list(graph.data)
    data_id = {d: i for i, d in enumerate(data_names)}
    data_size = [ds.size for ds in graph.data.values()]
    data_is_output = [
        ds.is_output and not ds.virtual for ds in graph.data.values()
    ]
    op_names = list(graph.ops)
    op_id = {o: i for i, o in enumerate(op_names)}
    band_start = np.empty(len(op_names), dtype=np.int64)
    in_ptr = np.empty(len(op_names) + 1, dtype=np.int64)
    in_ptr[0] = 0
    in_ids_l: list[int] = []
    uin_ptr: list[int] = [0]
    uin_ids: list[int] = []
    uout_ptr: list[int] = [0]
    uout_ids: list[int] = []
    for i, op in enumerate(graph.ops.values()):
        rng = op.params.get("out_range")
        band_start[i] = rng[0] if rng else 0
        in_ids_l.extend(data_id[d] for d in op.inputs)
        in_ptr[i + 1] = len(in_ids_l)
        uin_ids.extend(data_id[d] for d in dict.fromkeys(op.inputs))
        uin_ptr.append(len(uin_ids))
        uout_ids.extend(data_id[d] for d in dict.fromkeys(op.outputs))
        uout_ptr.append(len(uout_ids))
    preds, succs = graph._adjacency()
    pred_counts = [len(preds[o]) for o in op_names]
    succ_ptr: list[int] = [0]
    succ_ids: list[int] = []
    for o in op_names:
        succ_ids.extend(op_id[s] for s in succs[o])
        succ_ptr.append(len(succ_ids))
    return ColumnarGraph(
        data_names=data_names,
        data_id=data_id,
        data_size=data_size,
        data_is_output=data_is_output,
        op_names=op_names,
        op_id=op_id,
        band_start=band_start,
        in_ptr=in_ptr,
        in_ids=np.asarray(in_ids_l, dtype=np.int64),
        uin_ptr=uin_ptr,
        uin_ids=uin_ids,
        uout_ptr=uout_ptr,
        uout_ids=uout_ids,
        pred_counts=pred_counts,
        succ_ptr=succ_ptr,
        succ_ids=succ_ids,
    )
