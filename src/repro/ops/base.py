"""Operator library framework.

The paper assumes "an operator library that implements all the parallel
operators is available" (Section 3.1) and that each operator exposes a
statically defined memory footprint plus, where needed, *splitting rules*
(Section 3.2).  An :class:`OpImpl` bundles exactly that contract:

* shape inference (static footprints),
* a numpy reference execution (stands in for the CUDA kernels),
* cost figures (flops / bytes for the simulator's roofline model, read
  through :func:`launch_cost`),
* the splitting rule: for an output row range, which rows of each input
  are required (``None`` for inputs that must not be split, e.g. the
  convolution kernel matrix — Section 3.2 last paragraph).

Implementations register themselves by ``kind`` in a global registry the
compiler and executor share.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.graph import Operator, OperatorGraph


class OpImpl(abc.ABC):
    """Behaviour of one operator kind."""

    kind: str = ""
    #: data-parallel or otherwise row-splittable (Section 3.2)
    splittable: bool = True

    # -- shapes -------------------------------------------------------------
    @abc.abstractmethod
    def out_shapes(
        self, in_shapes: Sequence[tuple[int, ...]], params: dict
    ) -> list[tuple[int, ...]]:
        """Output shapes from input shapes (static memory model)."""

    # -- execution -----------------------------------------------------------
    @abc.abstractmethod
    def execute(
        self, op: "Operator", inputs: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """Numpy reference computation.

        ``inputs`` are the *logical* input regions already gathered by the
        executor (for split parts, the rows named by the splitting rule,
        clamped to the array bounds — boundary padding is the operator's
        job, since only it knows its semantics).
        """

    # -- cost model -------------------------------------------------------------
    def flops(self, op: "Operator", graph: "OperatorGraph") -> float:
        """Floating point operations; default one per output element."""
        return float(sum(graph.data[d].size for d in op.outputs))

    def bytes_accessed(self, op: "Operator", graph: "OperatorGraph") -> float:
        """Device-memory traffic; default footprint x 4 bytes."""
        return 4.0 * graph.op_footprint(op.name)

    # -- splitting rule -----------------------------------------------------------
    def split_rows(self, op: "Operator", graph: "OperatorGraph") -> int:
        """Number of rows of the (first) output along the split axis."""
        return graph.data[op.outputs[0]].rows

    def min_part_rows(self, op: "Operator", graph: "OperatorGraph") -> int:
        """Smallest legal output-row count for one part."""
        return 1

    @abc.abstractmethod
    def input_rows(
        self,
        op: "Operator",
        graph: "OperatorGraph",
        out_range: tuple[int, int],
    ) -> list[tuple[int, int] | None]:
        """Input rows needed to produce output rows ``[r0, r1)``.

        One entry per input slot: a (possibly out-of-bounds — the executor
        clamps and the operator pads) row range, or ``None`` when the
        whole input is needed and must not be split (kernels, biases).
        This is the "size and offset computation" of Section 3.2.
        """

    def input_rows_affine(
        self, op: "Operator", graph: "OperatorGraph"
    ) -> list[tuple[int, int, int, int] | None] | None:
        """Affine form of the splitting rule, if it has one.

        Every library rule maps output rows ``[r0, r1)`` to input rows by
        a per-slot affine transform: identity for elementwise kinds,
        halo-shifted for convolution, factor-scaled for subsampling.
        Returns one entry per input slot — ``(m0, c0, m1, c1)`` meaning
        the slot needs input rows ``[m0*r0 + c0, m1*r1 + c1)``, or
        ``None`` for whole-input (unsplittable) slots — or ``None`` as a
        whole when the rule is not affine, in which case callers fall
        back to per-part :meth:`input_rows` calls.  The columnar split
        estimator evaluates these coefficients over arrays of part
        boundaries instead of looping one :meth:`input_rows` call per
        part.
        """
        return None

    def input_rows_batch(
        self,
        op: "Operator",
        graph: "OperatorGraph",
        out_ranges: Sequence[tuple[int, int]],
    ) -> list[list[tuple[int, int] | None]]:
        """The splitting rule applied to many part ranges at once.

        Equivalent to ``[self.input_rows(op, graph, r) for r in
        out_ranges]`` but evaluated through the affine coefficients when
        the kind provides them (one coefficient fetch instead of one
        rule call per part).
        """
        coeffs = self.input_rows_affine(op, graph)
        if coeffs is None:
            return [self.input_rows(op, graph, rng) for rng in out_ranges]
        return [
            [
                None if c is None else (c[0] * r0 + c[1], c[2] * r1 + c[3])
                for c in coeffs
            ]
            for r0, r1 in out_ranges
        ]


_REGISTRY: dict[str, OpImpl] = {}


def register(impl: OpImpl) -> OpImpl:
    """Register an operator implementation by its ``kind``."""
    if not impl.kind:
        raise ValueError("OpImpl.kind must be set")
    if impl.kind in _REGISTRY:
        raise ValueError(f"operator kind {impl.kind!r} already registered")
    _REGISTRY[impl.kind] = impl
    return impl


def get_impl(kind: str) -> OpImpl:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise KeyError(
            f"no implementation for operator kind {kind!r}; "
            f"known: {sorted(_REGISTRY)}"
        ) from None


def known_kinds() -> list[str]:
    return sorted(_REGISTRY)


def launch_cost(op: "Operator", graph: "OperatorGraph") -> tuple[float, float]:
    """``(flops, bytes_accessed)`` of one launch of ``op`` in ``graph``.

    Footprints are static, so a launch's cost is too: it is derived once
    per operator and memoised on the graph (``_launch_costs``), which
    every mutator drops; on a frozen graph it is written once.  Every plan
    interpreter reads costs here; :meth:`OpImpl.flops` and
    :meth:`OpImpl.bytes_accessed` stay the per-kind definitions.
    Concurrent readers of one graph fill an entry with the same value.
    """
    costs = graph._launch_costs
    if costs is None:
        costs = graph._launch_costs = {}
    cost = costs.get(op.name)
    if cost is None:
        impl = get_impl(op.kind)
        cost = costs[op.name] = (impl.flops(op, graph), impl.bytes_accessed(op, graph))
    return cost
