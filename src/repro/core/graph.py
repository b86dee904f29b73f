"""Parallel operator graph IR.

The framework's input representation (Section 3.1): a template is a
directed bipartite graph of *operators* (parallel computations, the
ellipses in Figure 1(b)) and *data structures* (rectangles).  Memory
footprints are statically defined — every data structure carries its
shape, and an operator's footprint is the total size of the data
structures it touches — which is the property the whole compilation
pipeline (splitting, offload scheduling, transfer scheduling) relies on.
"""

from __future__ import annotations

import copy
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator


@dataclass(slots=True)
class DataStructure:
    """One array-valued vertex.

    ``parent``/``row_range`` mark chunks created by operator splitting:
    a chunk covers rows ``[row_range[0], row_range[1])`` of the logical
    parent array (splitting is along the leading axis, Section 3.2).
    A ``virtual`` data structure has been fully replaced by its chunks:
    it is kept for metadata but is never transferred or resident.
    """

    name: str
    shape: tuple[int, ...]
    is_input: bool = False
    is_output: bool = False
    parent: str | None = None
    row_range: tuple[int, int] | None = None
    virtual: bool = False

    def __post_init__(self) -> None:
        self.shape = tuple(int(s) for s in self.shape)
        if any(s < 0 for s in self.shape):
            raise ValueError(f"{self.name}: negative dimension in {self.shape}")

    @property
    def size(self) -> int:
        """Number of floats."""
        return math.prod(self.shape) if self.shape else 1

    @property
    def rows(self) -> int:
        return self.shape[0] if self.shape else 1


@dataclass(slots=True)
class Operator:
    """One parallel computation vertex.

    ``kind`` selects the implementation from the operator library
    (:mod:`repro.ops`); ``params`` carries kind-specific attributes
    (e.g. the region of the logical input a split part must read).
    """

    name: str
    kind: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.inputs = tuple(self.inputs)
        self.outputs = tuple(self.outputs)
        if not self.outputs:
            raise ValueError(f"operator {self.name} has no outputs")

    def touched(self) -> tuple[str, ...]:
        """All data structures read or written, without duplicates."""
        seen: dict[str, None] = {}
        for n in self.inputs + self.outputs:
            seen.setdefault(n)
        return tuple(seen)


@dataclass(slots=True)
class Slot:
    """Normalised view of one *logical* input of an operator.

    ``root`` names the logical array, ``rows`` the row range of it this
    operator reads (``None`` = all of it, e.g. a convolution kernel), and
    ``chunks`` the concrete data structures currently holding those rows.
    Unsplit operators have the identity structure (one chunk = the root).
    """

    root: str
    rows: tuple[int, int] | None
    chunks: list[str]


@dataclass(slots=True)
class OutSpec:
    """Normalised view of one *logical* output of an operator.

    The operator computes rows ``rng`` of the logical array ``root`` and
    scatters them into the listed ``(chunk_name, (r0, r1))`` pieces.
    """

    root: str
    rng: tuple[int, int]
    chunks: list[tuple[str, tuple[int, int]]]


def op_slots(op: "Operator", graph: "OperatorGraph") -> list[Slot]:
    """The operator's slot structure, defaulting to the identity."""
    slots = op.params.get("slots")
    if slots is not None:
        return slots
    return [Slot(root=d, rows=None, chunks=[d]) for d in op.inputs]


def op_out_specs(op: "Operator", graph: "OperatorGraph") -> list[OutSpec]:
    """The operator's output structure, defaulting to the identity."""
    specs = op.params.get("out_specs")
    if specs is not None:
        return specs
    out = []
    for d in op.outputs:
        rows = graph.data[d].rows
        out.append(OutSpec(root=d, rng=(0, rows), chunks=[(d, (0, rows))]))
    return out


def slot_size(op: "Operator", graph: "OperatorGraph", idx: int) -> int:
    """Floats in the logical region read through slot ``idx``."""
    slot = op_slots(op, graph)[idx]
    root = graph.data[slot.root]
    if slot.rows is None:
        return root.size
    r0, r1 = slot.rows
    per_row = root.size // max(root.rows, 1)
    return (r1 - r0) * per_row


def output_size(op: "Operator", graph: "OperatorGraph") -> int:
    """Total floats written by the operator (sum over output chunks)."""
    return sum(graph.data[d].size for d in op.outputs)


# ---------------------------------------------------------------------------
# Vertex cloning
# ---------------------------------------------------------------------------
# The one definition of "copy a graph vertex", shared by
# :meth:`OperatorGraph.copy` and fragment extraction.  It relies on the
# freeze rule in DESIGN.md: the splitter rebinds ``op.params`` keys and
# ``Slot``/``OutSpec`` fields of its own copy, it never mutates a param
# value reachable from another graph.
_ATOMS = frozenset({str, int, float, bool, type(None), bytes, complex})


def clone_param(value: Any) -> Any:
    """An independent copy of one ``Operator.params`` value.

    Atoms and tuples of atoms are immutable and shared; ``list``/``dict``
    are rebuilt recursively; ``Slot``/``OutSpec`` get fresh ``chunks``
    lists (their elements are names and ranges).  Any other type falls
    back to ``copy.deepcopy``.
    """
    cls = type(value)
    if cls in _ATOMS:
        return value
    if cls is list:
        return [clone_param(v) for v in value]
    if cls is tuple:
        items = [clone_param(v) for v in value]
        if all(a is b for a, b in zip(items, value)):
            return value
        return tuple(items)
    if cls is dict:
        return {k: clone_param(v) for k, v in value.items()}
    if cls is Slot:
        return Slot(value.root, value.rows, list(value.chunks))
    if cls is OutSpec:
        return OutSpec(value.root, value.rng, list(value.chunks))
    return copy.deepcopy(value)


def clone_data(ds: DataStructure) -> DataStructure:
    """Field-by-field copy of one data structure (every field is an
    immutable value, already validated — ``__post_init__`` is skipped)."""
    new = DataStructure.__new__(DataStructure)
    new.name = ds.name
    new.shape = ds.shape
    new.is_input = ds.is_input
    new.is_output = ds.is_output
    new.parent = ds.parent
    new.row_range = ds.row_range
    new.virtual = ds.virtual
    return new


def clone_operator(op: Operator) -> Operator:
    """Copy of one operator with independently mutable ``params``."""
    params = {k: clone_param(v) for k, v in op.params.items()}
    return Operator(op.name, op.kind, op.inputs, op.outputs, params)


class GraphError(ValueError):
    """Structural error in an operator graph."""


class OperatorGraph:
    """A parallel-operator-graph with dependency indexes: a value once
    built.

    Insertion order is preserved and used as the deterministic tiebreak
    in every traversal, so compilation is reproducible.

    **Freeze rule.**  A graph is append-only (:meth:`add_data`,
    :meth:`add_operator`, :meth:`mark_output`) until :meth:`freeze`, and
    read-only after: every mutator then raises :class:`GraphError`, and
    :meth:`copy` is the edit path.  Template factories,
    :func:`~repro.core.serialize.graph_from_dict` and the compile
    pipeline (after splitting) freeze what they hand out, and every
    plan-cache entry holds a frozen graph.  What the graph derives from
    its content is memoised on it: the adjacency and chunk indexes, the
    structural fingerprint every plan-cache, single-flight, batch and
    shard-routing key is composed from
    (:func:`repro.core.plancache.graph_fingerprint`), and the
    per-operator launch costs every plan interpreter reads
    (:func:`repro.ops.launch_cost`).  A mutator drops them all before it
    edits; on a frozen graph each is written once.  Writing around the
    mutators (a ``DataStructure`` field, an ``Operator.params`` key)
    is not an edit path.
    """

    def __init__(self, name: str = "template") -> None:
        self._name = name
        self._frozen = False
        self.data: dict[str, DataStructure] = {}
        self.ops: dict[str, Operator] = {}
        self.producer: dict[str, str] = {}  # data -> producing op
        self.consumers: dict[str, list[str]] = {}  # data -> consuming ops
        self.children: dict[str, list[str]] = {}  # root -> chunk names
        # Derived from the tables above (see the freeze rule).
        self._preds: dict[str, list[str]] | None = None
        self._succs: dict[str, list[str]] | None = None
        self._sorted_chunks: dict[str, tuple[list[str], list[int], list[int]]] = {}
        self._fingerprint: str | None = None
        # op name -> (flops, bytes_accessed); filled by repro.ops.launch_cost
        self._launch_costs: dict[str, tuple[float, float]] | None = None

    @property
    def name(self) -> str:
        return self._name

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "OperatorGraph":
        """Make the graph read-only (O(1)); returns it."""
        self._frozen = True
        return self

    def _begin_edit(self) -> None:
        """Every mutator's guard: refuse a frozen graph, else drop what
        was derived from the content."""
        if self._frozen:
            raise GraphError(f"graph {self._name!r} is frozen; edit a copy()")
        self._preds = self._succs = None
        if self._sorted_chunks:
            self._sorted_chunks = {}
        self._fingerprint = None
        self._launch_costs = None

    def __getstate__(self) -> tuple:
        """Pickle the tables, the fingerprint and the freeze flag (a
        tuple: no key strings on the shard pipe), not the derived
        indexes: those are rebuilt lazily, the fingerprint costs a full
        serialization to recompute — a shard must not re-hash what the
        router hashed."""
        return (
            self._name, self.data, self.ops, self.producer, self.consumers,
            self.children, self._fingerprint, self._frozen,
        )

    def __setstate__(self, state: tuple) -> None:
        self.__init__(state[0])  # type: ignore[misc]
        (_, self.data, self.ops, self.producer, self.consumers,
         self.children, self._fingerprint, self._frozen) = state

    def _adjacency(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        if self._preds is None:
            preds: dict[str, list[str]] = {}
            succs: dict[str, list[str]] = {}
            for o, op in self.ops.items():
                seen: dict[str, None] = {}
                for d in op.inputs:
                    p = self.producer.get(d)
                    if p is not None:
                        seen.setdefault(p)
                preds[o] = list(seen)
            for o, op in self.ops.items():
                seen = {}
                for d in op.outputs:
                    for c in self.consumers.get(d, ()):
                        seen.setdefault(c)
                succs[o] = list(seen)
            self._preds, self._succs = preds, succs
        assert self._succs is not None
        return self._preds, self._succs

    # -- construction -----------------------------------------------------
    def add_data(
        self,
        name: str,
        shape: Iterable[int],
        *,
        is_input: bool = False,
        is_output: bool = False,
        parent: str | None = None,
        row_range: tuple[int, int] | None = None,
        virtual: bool = False,
    ) -> DataStructure:
        self._begin_edit()
        if name in self.data:
            raise GraphError(f"duplicate data structure {name!r}")
        ds = DataStructure(
            name=name,
            shape=tuple(shape),
            is_input=is_input,
            is_output=is_output,
            parent=parent,
            row_range=row_range,
            virtual=virtual,
        )
        self.data[name] = ds
        self.consumers.setdefault(name, [])
        if parent is not None:
            self.children.setdefault(parent, []).append(name)
        return ds

    def add_operator(
        self,
        name: str,
        kind: str,
        inputs: Iterable[str],
        outputs: Iterable[str],
        **params: Any,
    ) -> Operator:
        self._begin_edit()
        if name in self.ops:
            raise GraphError(f"duplicate operator {name!r}")
        op = Operator(name, kind, tuple(inputs), tuple(outputs), params)
        for d in op.inputs:
            if d not in self.data:
                raise GraphError(f"operator {name}: unknown input {d!r}")
        for d in op.outputs:
            if d not in self.data:
                raise GraphError(f"operator {name}: unknown output {d!r}")
            if d in self.producer:
                raise GraphError(
                    f"data {d!r} already produced by {self.producer[d]!r}"
                )
            if self.data[d].is_input:
                raise GraphError(f"template input {d!r} cannot be an output")
        self.ops[name] = op
        for d in op.outputs:
            self.producer[d] = name
        for d in op.inputs:
            self.consumers[d].append(name)
        return op

    def mark_output(self, name: str, is_output: bool = True) -> None:
        """Set whether ``name`` is a template output (copied back to the
        host at the end of the plan)."""
        self._begin_edit()
        self.data[name].is_output = is_output

    # -- dependency structure -----------------------------------------------
    def op_predecessors(self, op_name: str) -> list[str]:
        """Operators producing any input of ``op_name`` (deduplicated)."""
        self.ops[op_name]  # preserve KeyError on unknown operators
        return list(self._adjacency()[0][op_name])

    def op_successors(self, op_name: str) -> list[str]:
        """Operators consuming any output of ``op_name`` (deduplicated)."""
        self.ops[op_name]
        return list(self._adjacency()[1][op_name])

    def roots(self) -> list[str]:
        """Operators with no operator predecessors."""
        preds = self._adjacency()[0]
        return [o for o in self.ops if not preds[o]]

    def leaves(self) -> list[str]:
        succs = self._adjacency()[1]
        return [o for o in self.ops if not succs[o]]

    def sorted_chunks(self, root: str) -> tuple[list[str], list[int], list[int]]:
        """Concrete chunks tiling ``root``, sorted by row range.

        Returns ``(names, starts, ends)`` with ``starts``/``ends`` parallel
        to ``names`` so range queries can bisect instead of scanning.  A
        non-virtual root tiles itself.  The result is cached on the graph;
        callers must not mutate it.
        """
        ds = self.data[root]
        if not ds.virtual:
            rng = ds.row_range or (0, ds.rows)
            return [root], [rng[0]], [rng[1]]
        entry = self._sorted_chunks.get(root)
        if entry is None:
            ranged = []
            for d in self.children.get(root, ()):
                cds = self.data[d]
                if not cds.virtual:
                    ranged.append((cds.row_range or (0, cds.rows), d))
            ranged.sort(key=lambda t: t[0])  # stable: ties keep insertion order
            entry = (
                [d for _, d in ranged],
                [r[0] for r, _ in ranged],
                [r[1] for r, _ in ranged],
            )
            self._sorted_chunks[root] = entry
        return entry

    def template_inputs(self) -> list[str]:
        return [d for d, ds in self.data.items() if ds.is_input]

    def template_outputs(self) -> list[str]:
        return [d for d, ds in self.data.items() if ds.is_output]

    # -- traversal -------------------------------------------------------------
    def topological_order(self) -> list[str]:
        """Kahn's algorithm; raises on cycles; insertion-order tiebreak."""
        preds, succs = self._adjacency()
        indeg = {o: len(preds[o]) for o in self.ops}
        ready = deque(o for o in self.ops if indeg[o] == 0)
        order: list[str] = []
        while ready:
            op = ready.popleft()
            order.append(op)
            for s in succs[op]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(order) != len(self.ops):
            raise GraphError(f"cycle detected in graph {self.name!r}")
        return order

    def validate(self) -> None:
        """Check the invariants the compilation pipeline relies on."""
        for d, ds in self.data.items():
            if ds.virtual:
                if d in self.producer or self.consumers.get(d):
                    raise GraphError(f"virtual data {d!r} still wired to operators")
                continue
            if not ds.is_input and d not in self.producer:
                if not self.consumers.get(d):
                    raise GraphError(f"orphan data structure {d!r}")
                raise GraphError(
                    f"data {d!r} consumed but never produced and not an input"
                )
            if ds.is_input and d in self.producer:
                raise GraphError(f"template input {d!r} has a producer")
            if ds.parent is not None and ds.row_range is None:
                raise GraphError(f"chunk {d!r} lacks a row_range")
            if ds.row_range is not None:
                r0, r1 = ds.row_range
                if not 0 <= r0 < r1:
                    raise GraphError(f"chunk {d!r}: bad row_range {ds.row_range}")
        self.topological_order()  # raises on cycles

    # -- analysis ---------------------------------------------------------------
    def op_footprint(self, op_name: str) -> int:
        """Memory footprint of one operator in floats (Section 3.2 step 1)."""
        return sum(self.data[d].size for d in self.ops[op_name].touched())

    def max_footprint(self) -> int:
        return max((self.op_footprint(o) for o in self.ops), default=0)

    def total_data_size(self) -> int:
        """Total size of all concrete data structures (template footprint)."""
        return sum(ds.size for ds in self.data.values() if not ds.virtual)

    def io_size(self) -> int:
        """Template inputs + outputs: the transfer lower bound of Table 1."""
        return sum(
            ds.size
            for ds in self.data.values()
            if not ds.virtual and (ds.is_input or ds.is_output)
        )

    def copy(self, name: str | None = None) -> "OperatorGraph":
        """Independent, unfrozen copy: the edit path of a frozen graph.

        A structural clone, not ``copy.deepcopy``: vertices go through
        :func:`clone_data` / :func:`clone_operator`, the indexes are
        rebuilt as fresh containers of (immutable) names.  A same-named
        copy serializes identically, so it keeps the fingerprint.
        """
        g = OperatorGraph(name or self.name)
        if g.name == self.name:
            g._fingerprint = self._fingerprint
        g.data = {d: clone_data(ds) for d, ds in self.data.items()}
        g.ops = {o: clone_operator(op) for o, op in self.ops.items()}
        g.producer = dict(self.producer)
        g.consumers = {d: list(self.consumers.get(d, ())) for d in self.data}
        g.children = {k: list(v) for k, v in self.children.items()}
        return g

    # -- misc -----------------------------------------------------------------
    def fresh_name(self, base: str) -> str:
        """A data/operator name not yet used, derived from ``base``."""
        if base not in self.data and base not in self.ops:
            return base
        i = 1
        while True:
            cand = f"{base}#{i}"
            if cand not in self.data and cand not in self.ops:
                return cand
            i += 1

    def __iter__(self) -> Iterator[Operator]:
        return iter(self.ops.values())

    def __len__(self) -> int:
        return len(self.ops)

    def stats(self) -> dict[str, int]:
        return {
            "operators": len(self.ops),
            "data_structures": len(self.data),
            "total_floats": self.total_data_size(),
            "max_op_footprint": self.max_footprint(),
            "io_floats": self.io_size(),
        }
