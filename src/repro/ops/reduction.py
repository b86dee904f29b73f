"""Row-reduction operators.

``reduce``: collapse all rows with ``sum``/``max``/``mean``, producing a
``(1, W)`` result.  The paper lists reduction among the "split-able, but
not data parallel" operators (Section 3.2): a row split cannot simply
partition the output.  The splitter handles this kind specially — parts
produce *partial* results over their row ranges and a generated combine
operator merges them (see :func:`repro.core.splitting.make_feasible`).

``combine_partials`` is that generated merge step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .base import OpImpl, register

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.graph import Operator, OperatorGraph

_REDUCERS = {
    "sum": np.sum,
    "max": np.max,
    "mean": np.mean,
}


class Reduce(OpImpl):
    """``reduce(x) -> (1, W)``; params: ``fn`` in {sum, max, mean}."""

    kind = "reduce"
    splittable = True
    #: the splitter must use partial-result splitting, not output rows
    partial_split = True

    def out_shapes(self, in_shapes, params):
        h, w = in_shapes[0]
        fn = params.get("fn", "sum")
        if fn not in _REDUCERS:
            raise ValueError(f"unknown reduce fn {fn!r}")
        return [(1, w)]

    def execute(self, op: "Operator", inputs: Sequence[np.ndarray]):
        fn = _REDUCERS[op.params.get("fn", "sum")]
        return [
            np.asarray(fn(inputs[0], axis=0, keepdims=True), dtype=np.float32)
        ]

    def flops(self, op: "Operator", graph: "OperatorGraph") -> float:
        from repro.core.graph import slot_size

        return float(slot_size(op, graph, 0))

    def input_rows(self, op, graph, out_range):
        # Partial split: a part covering input rows [a, b) — the split
        # machinery passes *input* ranges for partial-split kinds.
        return [out_range]

    def input_rows_affine(self, op, graph):
        return [(1, 0, 1, 0)]


class CombinePartials(OpImpl):
    """Merge partial reduction results; params: ``fn``.

    ``mean`` partials are combined with a weighted average using the
    per-part row counts recorded by the splitter in ``params['weights']``.
    """

    kind = "combine_partials"
    splittable = False

    def out_shapes(self, in_shapes, params):
        return [in_shapes[0]]

    def execute(self, op: "Operator", inputs: Sequence[np.ndarray]):
        fn = op.params.get("fn", "sum")
        stacked = np.vstack(inputs)
        if fn == "sum":
            out = stacked.sum(axis=0, keepdims=True)
        elif fn == "max":
            out = stacked.max(axis=0, keepdims=True)
        elif fn == "mean":
            weights = np.asarray(op.params["weights"], dtype=np.float64)
            weights = weights / weights.sum()
            out = (stacked * weights[:, None]).sum(axis=0, keepdims=True)
        else:
            raise ValueError(f"unknown combine fn {fn!r}")
        return [out.astype(np.float32, copy=False)]

    def input_rows(self, op, graph, out_range):  # pragma: no cover - unsplittable
        raise NotImplementedError("combine_partials is not splittable")


register(Reduce())
register(CombinePartials())
