"""Operator splitting (Section 3.2).

Makes every operator's memory footprint fit the device by splitting
operators along the leading (row) axis and partitioning the data
structures they touch, following the paper's fixpoint algorithm:

1. compute every operator's footprint (sum of the sizes of the data
   structures it touches);
2. split operators whose footprint exceeds device memory, modifying the
   producers/consumers of the split data as needed;
3. repeat until every operator is individually executable.

Mechanics
---------
Splitting an operator into *P* parts cuts its logical output rows into
*P* ranges; each part reads, per input slot, the rows its kind's
splitting rule gives (:meth:`repro.ops.base.OpImpl.input_rows`: identity
for data-parallel kinds, halo-extended for convolution, ``None`` for
whole inputs such as kernels).  The touched arrays are *partitioned*
into chunks at the part boundaries; producers scatter into chunks and
consumers gather from them, so transfers happen at chunk granularity as
in the paper's Figures 3 and 6.  Reductions split into partial results
merged by ``combine_partials`` operators (a tree when a flat merge would
not fit).

Every round is *planned* on row ranges (:class:`_Plan`): per root a
sorted tiling of integer cuts, per operator its slots and out-specs as
``(root, rows)`` with their chunk names.  The graph's own index
bookkeeping (``fresh_name`` suffixes, insertion order, the consumer-list
order the scheduler reads) is replayed on plain dicts.  The graph is
*built* once, after the last round: one ``DataStructure`` per surviving
datum, one ``Operator``, ``Slot`` and ``OutSpec`` per surviving part.
The result is byte for byte the graph the former split-by-surgery
implementation produced; ``tests/reference_splitting.py`` keeps that
implementation as the oracle.
"""

from __future__ import annotations

import gc
import math
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Any

import numpy as np

from repro.ops import get_impl

from .graph import (
    DataStructure,
    GraphError,
    Operator,
    OperatorGraph,
    OutSpec,
    Slot,
    op_out_specs,
    op_slots,
)


class InfeasibleTemplateError(RuntimeError):
    """The template cannot be made to fit device memory by splitting."""


@dataclass
class SplitReport:
    """What :func:`make_feasible` did to the graph."""

    rounds: int = 0
    split_ops: dict[str, int] = field(default_factory=dict)  # op -> nparts
    partitioned_roots: dict[str, int] = field(default_factory=dict)

    @property
    def any_split(self) -> bool:
        return bool(self.split_ops)


# ---------------------------------------------------------------------------
# Chunk bookkeeping
# ---------------------------------------------------------------------------
def chunk_range(graph: OperatorGraph, name: str) -> tuple[int, int]:
    ds = graph.data[name]
    if ds.row_range is not None:
        return ds.row_range
    return (0, ds.rows)


def chunks_of(graph: OperatorGraph, root: str) -> list[str]:
    """Concrete data structures currently tiling ``root`` (sorted by row)."""
    return list(graph.sorted_chunks(root)[0])


def select_chunks(
    graph: OperatorGraph, root: str, rows: tuple[int, int] | None
) -> list[str]:
    """Chunks of ``root`` overlapping the row range (all when ``rows=None``)."""
    names, starts, ends = graph.sorted_chunks(root)
    if rows is None:
        return list(names)
    a, b = rows
    # Chunks are disjoint and sorted, so the overlap set is a contiguous
    # run: drop chunks ending at/before ``a``, keep those starting before
    # ``b``.  Identical to filtering on start < b and end > a.
    return names[bisect_right(ends, a) : bisect_left(starts, b)]


def _pick(tiles: tuple, rows: tuple[int, int] | None) -> list[str]:
    """:func:`select_chunks` on planned ``(names, starts, ends, ranges)``."""
    names, starts, ends, _ = tiles
    if rows is None:
        return names[:]
    return names[bisect_right(ends, rows[0]) : bisect_left(starts, rows[1])]


# ---------------------------------------------------------------------------
# The plan: row ranges, plus a replay of the graph's index bookkeeping
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class _Op:
    """An operator the split touched or created: its wiring, slots as
    ``(root, rows, chunks)``, out-specs as ``(root, rng, [(chunk,
    range)])``, params in final key order (``slots``/``out_specs`` are
    built last) and the template operator it rewires, if any."""

    kind: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    params: dict[str, Any]
    slots: list[tuple]
    specs: list[tuple]
    orig: Operator | None = None


class _Plan:
    """The split of one graph, planned on names and row ranges.

    ``data``/``ops``/``prod``/``cons``/``children`` mirror the graph's
    tables in content and order: template entries map to ``None`` / the
    template's ``Operator``, a new chunk to ``(root, range)``, a new
    partial result to ``(None, shape)``, a touched operator to
    :class:`_Op`.  Every change is the index update the oracle's
    rewiring helpers make on a graph; no vertex is built before
    :meth:`build`.
    """

    def __init__(self, graph: OperatorGraph) -> None:
        self.g = graph
        self.data: dict[str, tuple | None] = dict.fromkeys(graph.data)
        self.size = {d: ds.size for d, ds in graph.data.items()}
        self.ops: dict[str, Any] = dict(graph.ops)
        self.prod = dict(graph.producer)
        self.cons = {d: list(c) for d, c in graph.consumers.items()}
        self.children = {r: list(c) for r, c in graph.children.items()}
        self.virtual: set[str] = set()  # template roots turned virtual
        self._tiles: dict[str, tuple] = {}

    def shape(self, d: str) -> tuple[int, ...]:
        rec = self.data[d]
        if rec is None:
            return self.g.data[d].shape
        if rec[0] is None:
            return rec[1]
        return (rec[1][1] - rec[1][0], *self.shape(rec[0])[1:])

    def rows(self, d: str) -> int:
        shape = self.shape(d)
        return shape[0] if shape else 1

    def per_row(self, d: str) -> int:
        return self.size[d] // max(self.rows(d), 1)

    def tiles(self, root: str) -> tuple:
        """``(names, starts, ends, ranges)`` of the chunks tiling ``root``."""
        t = self._tiles.get(root)
        if t is None:
            g, rec = self.g, self.data[root]
            if rec is None and g.data[root].virtual:
                names = list(g.sorted_chunks(root)[0])
                rngs = [chunk_range(g, n) for n in names]
            elif rec is None:
                names, rngs = [root], [chunk_range(g, root)]
            else:  # a partial result: one row, never partitioned
                names, rngs = [root], [(0, 1)]
            t = self._tiles[root] = (names, [r[0] for r in rngs], [r[1] for r in rngs], rngs)
        return t

    def fresh(self, base: str) -> str:
        """:meth:`OperatorGraph.fresh_name` against the planned tables."""
        data, ops = self.data, self.ops
        if base not in data and base not in ops:
            return base
        i = 1
        while f"{base}#{i}" in data or f"{base}#{i}" in ops:
            i += 1
        return f"{base}#{i}"

    def add_partial(self, name: str, cols: int) -> None:
        self.data[name], self.size[name], self.cons[name] = (None, (1, cols)), cols, []

    def struct(self, name: str) -> tuple[list, list]:
        """``(slots, specs)`` of an operator as planner tuples."""
        op = self.ops[name]
        if type(op) is _Op:
            return op.slots, op.specs
        return (
            [(s.root, s.rows, list(s.chunks)) for s in op_slots(op, self.g)],
            [(s.root, s.rng, list(s.chunks)) for s in op_out_specs(op, self.g)],
        )

    def touch(self, name: str) -> _Op:
        """The planner record of ``name``, converting a template operator."""
        op = self.ops[name]
        if type(op) is not _Op:
            slots, specs = self.struct(name)
            op = self.ops[name] = _Op(
                op.kind, op.inputs, op.outputs, dict(op.params), slots, specs, op
            )
        return op

    def view(self, name: str) -> Operator:
        """An ``Operator`` for the kind's splitting rule to read (a rewired
        template operator has the same kind, roots and rule params)."""
        op = self.ops[name]
        if type(op) is not _Op:
            return op
        if op.orig is not None:
            return op.orig
        return Operator(name, op.kind, op.inputs, op.outputs, _params(op, dict(op.params)))

    def add_op(self, name: str, op: _Op) -> None:
        self.ops[name] = op
        for d in op.outputs:
            self.prod[d] = name
        for d in op.inputs:
            self.cons[d].append(name)

    def remove_op(self, name: str) -> None:
        op = self.ops.pop(name)
        for d in op.outputs:
            del self.prod[d]
        for d in op.inputs:
            self.cons[d].remove(name)

    def rewire(self, name: str, op: _Op, inputs, outputs) -> None:
        """The oracle's ``set_op_io`` index updates: a kept input read once
        keeps its consumer-list place unless it has a producer."""
        prod, cons = self.prod, self.cons
        old_in, new_in = op.inputs, tuple(dict.fromkeys(inputs))
        once = set(old_in)
        if len(once) != len(old_in):
            once = {d for d in once if old_in.count(d) == 1}
        new = set(new_in)
        for d in old_in:  # leaving, or read twice: every entry goes
            if d not in new or d not in once:
                cons[d].remove(name)
        for d in new_in:
            if d not in once:
                cons[d].append(name)
            elif d in prod and cons[d][-1] != name:  # kept and produced: moves last
                cons[d].remove(name)
                cons[d].append(name)
        op.inputs = new_in
        for d in op.outputs:
            del prod[d]
        op.outputs = tuple(dict.fromkeys(outputs))
        for d in op.outputs:
            prod[d] = name

    def footprint(self, name: str) -> int:
        op = self.ops[name]
        return sum(map(self.size.__getitem__, dict.fromkeys(op.inputs + op.outputs)))

    def order(self) -> list[str]:
        """The graph's own topological pass, run over the planned tables."""
        planned = OperatorGraph(self.g.name)
        planned.ops, planned.producer, planned.consumers = self.ops, self.prod, self.cons
        return planned.topological_order()

    def partition(self, root: str, boundaries) -> None:
        """Refine ``root``'s chunks with more row cuts (existing cuts are
        kept), rewiring its producers to scatter into and its consumers
        to gather from the refined chunks."""
        rec = self.data[root]
        if (self.g.data[root].parent if rec is None else rec[0]) is not None:
            raise GraphError(f"partition_data target {root!r} is itself a chunk")
        rows = self.rows(root)
        cuts = {c for c in boundaries if 0 < c < rows}
        if not cuts and not (rec is None and (root in self.virtual or self.g.data[root].virtual)):
            return
        names, starts, ends, rngs = self.tiles(root)
        bounds = {0, rows} | cuts
        if names != [root]:
            bounds.update(starts)
            bounds.update(ends)
        bounds = sorted(bounds)
        # A chunk with a bound strictly inside is replaced by its pieces,
        # new chunks named and registered in row order.
        spans = [(bisect_left(bounds, a), bisect_left(bounds, b)) for a, b in zip(starts, ends)]
        replaced = {oc: None for oc, (k0, k1) in zip(names, spans) if k1 - k0 != 1 or oc == root}
        if not replaced:
            return
        pairs = [
            (bounds[k], bounds[k + 1])
            for oc, (k0, k1) in zip(names, spans) if oc in replaced for k in range(k0, k1)
        ]
        new = [f"{root}[{a}:{b}]" for a, b in pairs]
        data, cons, prod = self.data, self.cons, self.prod
        if not (data.keys().isdisjoint(new) and self.ops.keys().isdisjoint(new)):
            for i, name in enumerate(new):  # as fresh_name would, one by one
                new[i] = self.fresh(name)
                data[new[i]] = None
        per = self.per_row(root)
        data.update(zip(new, [(root, r) for r in pairs]))
        self.size.update(zip(new, [(b - a) * per for a, b in pairs]))
        cons.update([(n, []) for n in new])
        kids = self.children.setdefault(root, [])
        kids += new
        tiling = [(r, n) for n, r in zip(names, rngs) if n not in replaced]
        tiling += zip(pairs, new)
        tiling.sort()  # by row range: chunks are disjoint
        nr = [r for r, _ in tiling]
        tiles = [n for _, n in tiling], [r[0] for r in nr], [r[1] for r in nr], nr
        self._tiles[root] = tiles
        # Producers, in order over the replaced chunks (one spec per root
        # each, so a producer's chunks are one run: first = last occurrence).
        for p in dict.fromkeys(prod[oc] for oc in replaced if oc in prod):
            op = self.touch(p)
            op.params.setdefault("out_specs")
            op.specs = [(r, g, _pieces(tiles, g) if r == root else pcs) for r, g, pcs in op.specs]
            self.rewire(p, op, op.inputs, [n for s in op.specs for n, _ in s[2]])
        # Consumers, in the order of each one's *last* rewire had every
        # (chunk, consumer) pair been rewired on its own: at each chunk,
        # not-yet-rewired consumers in list order, then rewired ones in
        # rewire order.
        seq: dict[str, int] = {}
        tick = count()
        for oc in replaced:
            cur = cons[oc]
            moved = sorted((c for c in set(cur) if c in seq), key=seq.__getitem__)
            for c in [c for c in cur if c not in seq] + moved:
                seq[c] = next(tick)
        for c in sorted(seq, key=seq.__getitem__):
            op = self.touch(c)
            op.params.setdefault("slots")
            op.slots = [(r, g, _pick(tiles, g) if r == root else ch) for r, g, ch in op.slots]
            self.rewire(c, op, [n for s in op.slots for n in s[2]], op.outputs)
        # Retire the replaced chunks.
        if root in replaced:
            self.virtual.add(root)
        gone = {oc for oc in replaced if oc != root}
        for oc in gone:
            del data[oc]
            cons.pop(oc, None)
        if gone:
            self.children[root] = [c for c in kids if c not in gone]

    def fit(self, name: str, capacity: int) -> int:
        """Split an over-capacity operator into parts that fit (an
        over-wide merge into a tree); returns the number of parts."""
        op = self.ops[name]
        impl = get_impl(op.kind)
        if op.kind == "combine_partials":
            fan_in = capacity // max(self.size[op.outputs[0]], 1) - 1
            if fan_in < 2:
                raise InfeasibleTemplateError(
                    f"combine {name!r}: even pairwise merging exceeds capacity"
                )
            slots, specs = self.struct(name)
            weights = op.params.get("weights")
            self.remove_op(name)
            return len(self.combine_tree(
                self.fresh(op.params.get("part_of", name)),
                [s[0] for s in slots], [pc for s in specs for pc in s[2]], specs[0][0],
                op.params.get("fn", "sum"), None if weights is None else list(weights), fan_in,
            ))
        fp = self.footprint(name)
        if not impl.splittable:
            raise InfeasibleTemplateError(
                f"operator {name!r} (kind {op.kind!r}, footprint {fp} floats) "
                f"exceeds device capacity {capacity} and is not splittable"
            )
        slots, specs = self.struct(name)
        partial = getattr(impl, "partial_split", False)
        a, b = slots[0][1] or (0, self.rows(slots[0][0])) if partial else specs[0][1]
        n = min(max(2, math.ceil(fp / capacity)), b - a)
        while self.estimate(name, n) > capacity:
            if n >= b - a:
                raise InfeasibleTemplateError(
                    f"operator {name!r} cannot fit device memory even "
                    f"when split into {b - a} single-row parts"
                )
            n = min(b - a, max(n + 1, math.ceil(n * 1.3)))
        return len(self.split(name, n))

    def split(self, name: str, nparts: int) -> list[str]:
        """Split one operator into ``nparts`` row-parts; returns the part
        names (``[name]`` when no split was possible)."""
        op = self.ops[name]
        impl = get_impl(op.kind)
        if getattr(impl, "partial_split", False):
            return self.split_reduction(name, nparts)
        view = self.view(name)
        slots, specs = self.struct(name)
        lo, hi = specs[0][1]
        rows_out = hi - lo
        nparts = min(nparts, rows_out, max(1, rows_out // max(impl.min_part_rows(view, self.g), 1)))
        if nparts <= 1:
            return [name]
        if any(rng[1] - rng[0] != rows_out for _, rng, _ in specs[1:]):
            raise GraphError(f"{name}: outputs have differing logical row counts")
        cuts = [lo + (rows_out * i) // nparts for i in range(nparts + 1)]
        part_ranges = list(zip(cuts[:-1], cuts[1:]))
        # Per-part, per-slot required input rows (None = whole input).
        reqs = impl.input_rows_batch(view, self.g, part_ranges)
        root_rows = [self.rows(s[0]) for s in slots]
        base = dict(op.params)
        part_of = base.get("part_of", name)
        self.remove_op(name)  # first, so partitioning skips it
        for i, s in enumerate(slots):
            starts = [max(0, req[i][0]) for req in reqs if req[i] is not None]
            if starts:
                self.partition(s[0], starts)
        for root, rng, _ in specs:
            self.partition(root, [c + rng[0] - lo for c in cuts[1:-1]])
        # One column per slot and out-spec (every part's rows and chunks).
        cols = []
        for i, ((root, rows, _), nrows) in enumerate(zip(slots, root_rows)):
            names, starts, ends, _ = self.tiles(root)
            part_rows = [
                rows if r is None else (r[0] if r[0] > 0 else 0, r[1] if r[1] < nrows else nrows)
                for r in (q[i] for q in reqs)
            ]
            cols.append([
                (root, r, names[:] if r is None else names[
                    bisect_right(ends, r[0]) : bisect_left(starts, r[1])
                ])
                for r in part_rows
            ])
        for root, rng, _ in specs:
            tiles = self.tiles(root)
            off = rng[0] - lo
            cols.append([
                (root, (a + off, b + off), _pieces(tiles, (a + off, b + off)))
                for a, b in part_ranges
            ])
        parts = [f"{name}.p{p}" for p in range(nparts)]
        data, ops, prod, cons = self.data, self.ops, self.prod, self.cons
        if not (data.keys().isdisjoint(parts) and ops.keys().isdisjoint(parts)):
            parts = [None] * nparts  # named one by one, as fresh_name would
        n_in = len(slots)
        for p, row in enumerate(zip(*cols)):
            part = parts[p] = parts[p] or self.fresh(f"{name}.p{p}")
            part_slots, part_specs = list(row[:n_in]), list(row[n_in:])
            ins = tuple(chain.from_iterable([s[2] for s in part_slots]))
            outs = tuple(n for s in part_specs for n, _ in s[2])
            ops[part] = _Op(op.kind, ins, outs, {
                **base, "slots": None, "out_specs": None, "out_range": part_specs[0][1],
                "in_rows": root_rows[0], "part_of": part_of,
            }, part_slots, part_specs)
            for d in outs:
                prod[d] = part
            for d in ins:
                cons[d].append(part)
        return parts

    def split_reduction(self, name: str, nparts: int) -> list[str]:
        """Partial-result splitting for reductions (single-row outputs)."""
        slots, specs = self.struct(name)
        in_root = slots[0][0]
        lo, hi = slots[0][1] or (0, self.rows(in_root))
        nparts = min(nparts, hi - lo)
        if nparts <= 1:
            return [name]
        op = self.ops[name]
        base = dict(op.params)
        fn = base.get("fn", "sum")
        cols = self.shape(in_root)[1]
        cuts = [lo + ((hi - lo) * i) // nparts for i in range(nparts + 1)]
        part_ranges = list(zip(cuts[:-1], cuts[1:]))
        out = [pc for s in specs for pc in s[2]]
        self.remove_op(name)
        self.partition(in_root, cuts[1:-1])
        tiles = self.tiles(in_root)
        parts: list[str] = []
        partials: list[str] = []
        for p, rows in enumerate(part_ranges):
            partial = self.fresh(f"{specs[0][0]}.partial{p}")
            self.add_partial(partial, cols)
            chunks = _pick(tiles, rows)
            parts.append(self.fresh(f"{name}.p{p}"))
            self.add_op(parts[-1], _Op(
                op.kind, tuple(chunks), (partial,),
                {**base, "slots": None, "out_specs": None, "part_of": base.get("part_of", name)},
                [(in_root, rows, chunks)], [(partial, (0, 1), [(partial, (0, 1))])],
            ))
            partials.append(partial)
        weights = [b - a for a, b in part_ranges] if fn == "mean" else None
        # Flat combine first; a later round makes it a tree if it must.
        return parts + self.combine_tree(name, partials, out, specs[0][0], fn, weights, nparts)

    def combine_tree(self, base, partials, out, out_root, fn, weights, fan_in) -> list[str]:
        """Merge partials ``fan_in`` at a time with ``combine_partials``
        operators (weighted means carry their row counts up the tree);
        the last merge scatters into ``out``, pieces of ``out_root``."""
        created, level, round_no = [], list(partials), 0
        cols = self.shape(partials[0])[1]
        while len(level) > fan_in:
            nxt: list[str] = []
            nxt_weights: list[int] | None = [] if weights is not None else None
            for i in range(0, len(level), fan_in):
                group = level[i : i + fan_in]
                if len(group) == 1:
                    nxt.append(group[0])
                    if weights is not None:
                        nxt_weights.append(weights[i])
                    continue
                partial = self.fresh(f"{out_root}.merge{round_no}_{i}")
                self.add_partial(partial, cols)
                w = None if weights is None else weights[i : i + fan_in]
                created.append(self.fresh(f"{base}.merge{round_no}_{i}"))
                self.add_op(created[-1], _combine(fn, w, group, partial, [(partial, (0, 1))]))
                nxt.append(partial)
                if weights is not None:
                    nxt_weights.append(sum(w))
            level, weights = nxt, nxt_weights
            round_no += 1
        created.append(self.fresh(f"{base}.combine"))
        self.add_op(created[-1], _combine(fn, weights, level, out_root, out))
        return created

    def estimate(self, name: str, nparts: int) -> int:
        """Max part footprint (floats) if ``name`` were split ``nparts`` ways,
        against the partitions as the split itself would refine them: one
        numpy pass for affine splitting rules, else a loop over parts."""
        impl = get_impl(self.ops[name].kind)
        slots, specs = self.struct(name)
        if getattr(impl, "partial_split", False):
            in_root = slots[0][0]
            lo, hi = slots[0][1] or (0, self.rows(in_root))
            nparts = min(nparts, hi - lo)
            edges = lo + ((hi - lo) * np.arange(nparts + 1, dtype=np.int64)) // nparts
            worst = int(np.diff(edges).max())
            return worst * self.per_row(in_root) + self.shape(in_root)[1]
        lo, hi = specs[0][1]
        rows_out = hi - lo
        nparts = min(nparts, rows_out)
        if nparts <= 1:
            return self.footprint(name)
        view = self.view(name)
        coeffs = impl.input_rows_affine(view, self.g)
        if coeffs is not None and len(coeffs) == len(slots):
            split_roots = [s[0] for s, c in zip(slots, coeffs) if c is not None]
            if len(set(split_roots)) == len(split_roots):
                return self._estimate_affine(slots, specs, coeffs, lo, rows_out, nparts)
        cuts = [lo + (rows_out * i) // nparts for i in range(nparts + 1)]
        part_ranges = list(zip(cuts[:-1], cuts[1:]))
        reqs = [impl.input_rows(view, self.g, rng) for rng in part_ranges]
        refined: dict[str, list[int]] = {}  # bounds after the split, per split root
        for i, (root, _, _) in enumerate(slots):
            if any(req[i] is not None for req in reqs):
                _, starts, ends, _ = self.tiles(root)
                bounds = {0, self.rows(root), *starts, *ends}
                bounds.update(max(0, req[i][0]) for req in reqs if req[i] is not None)
                refined[root] = sorted(bounds)
        worst = 0
        for (a, b), req in zip(part_ranges, reqs):
            fp = sum((b - a) * self.per_row(s[0]) for s in specs)
            seen: set = set()
            for (root, _, chunks), r in zip(slots, req):
                if r is None:
                    fp += sum(self.size[n] for n in chunks if n not in seen)
                    seen.update(chunks)
                    continue
                ra, rb = max(0, r[0]), min(self.rows(root), r[1])
                bounds = refined[root]
                # Overlapping refined ranges are a contiguous run of bounds.
                k0 = max(0, bisect_right(bounds, ra) - 1)
                for k in range(k0, min(len(bounds) - 1, bisect_left(bounds, rb))):
                    c0, c1 = bounds[k], bounds[k + 1]
                    if c0 < rb and c1 > ra and (root, c0, c1) not in seen:
                        seen.add((root, c0, c1))
                        fp += (c1 - c0) * self.per_row(root)
            worst = max(worst, fp)
        return worst

    def _estimate_affine(self, slots, specs, coeffs, lo, rows_out, nparts) -> int:
        """:meth:`estimate` for affine rules: part boundaries are an
        ``arange`` expression, each split slot's range an affine map of
        them, and the overlapped refined-chunk volume per part a
        ``searchsorted`` pair against the sorted bounds.  The split slots'
        roots are pairwise distinct (the caller checks)."""
        cuts = lo + (rows_out * np.arange(nparts + 1, dtype=np.int64)) // nparts
        a, b = cuts[:-1], cuts[1:]
        fp = (b - a) * sum(self.per_row(s[0]) for s in specs)
        # Whole-input slots: constant across parts, chunks counted once.
        whole = dict.fromkeys(n for s, c in zip(slots, coeffs) if c is None for n in s[2])
        const = sum(self.size[n] for n in whole)
        for (root, _, _), c in zip(slots, coeffs):
            if c is None:
                continue
            rows = self.rows(root)
            ra = np.maximum(0, c[0] * a + c[1])
            rb = np.minimum(rows, c[2] * b + c[3])
            _, starts, ends, _ = self.tiles(root)
            bounds = {0, rows, *starts, *ends}
            bounds.update(ra.tolist())
            bounds = np.asarray(sorted(bounds), dtype=np.int64)
            s = np.searchsorted(bounds, ra, side="right") - 1
            e = np.searchsorted(bounds, rb, side="left")
            fp = fp + np.maximum(0, bounds[e] - bounds[s]) * self.per_row(root)
        return int(fp.max() + const)

    def build(self) -> None:
        """Create every surviving vertex once and swap the tables in
        (through the graph's mutator guard: a frozen graph raises here,
        before anything changes)."""
        g = self.g
        g._begin_edit()
        new_ds = DataStructure.__new__
        data = {}
        for d, rec in self.data.items():
            if rec is None:
                data[d] = g.data[d]
                continue
            # Fields are already validated ints: skip ``__post_init__``.
            ds = data[d] = new_ds(DataStructure)
            ds.name, ds.virtual = d, False
            root, rng = rec
            if root is None:  # a partial result
                ds.shape, ds.is_input, ds.is_output = rng, False, False
                ds.parent = ds.row_range = None
                continue
            rds = data[root]
            ds.shape = (rng[1] - rng[0], *rds.shape[1:])
            ds.is_input, ds.is_output = rds.is_input, rds.is_output
            ds.parent, ds.row_range = root, rng
        for root in self.virtual:
            data[root].virtual = True
        ops = {}
        for o, op in self.ops.items():
            if type(op) is _Op:
                params = _params(op, op.params)
                if op.orig is None:
                    op = Operator(o, op.kind, op.inputs, op.outputs, params)
                else:
                    op.orig.inputs, op.orig.outputs = op.inputs, op.outputs
                    op.orig.params = params
                    op = op.orig
            ops[o] = op
        g.data, g.ops = data, ops
        g.producer, g.consumers, g.children = self.prod, self.cons, self.children


def _pieces(tiles: tuple, rng: tuple[int, int]) -> list:
    """``(chunk, range)`` pairs an out-spec over ``rng`` scatters into."""
    names, starts, ends, rngs = tiles
    i, j = bisect_right(ends, rng[0]), bisect_left(starts, rng[1])
    return list(zip(names[i:j], rngs[i:j]))


def _params(op: _Op, params: dict) -> dict:
    """``params`` with ``op``'s slot and out-spec objects built."""
    if "slots" in params:
        params["slots"] = [Slot(r, rows, chunks) for r, rows, chunks in op.slots]
    if "out_specs" in params:
        params["out_specs"] = [OutSpec(r, rng, pcs) for r, rng, pcs in op.specs]
    return params


def _combine(fn, weights, group, out_root, pieces) -> _Op:
    """A ``combine_partials`` merging ``group`` into ``pieces`` of ``out_root``."""
    params: dict[str, Any] = {"fn": fn}
    if weights is not None:
        params["weights"] = list(weights)
    params["slots"] = params["out_specs"] = None
    return _Op(
        "combine_partials", tuple(group), tuple(n for n, _ in pieces), params,
        [(d, None, [d]) for d in group], [(out_root, (0, 1), list(pieces))],
    )


# ---------------------------------------------------------------------------
# The feasibility fixpoint
# ---------------------------------------------------------------------------
def estimate_split(graph: OperatorGraph, op_name: str, nparts: int) -> int:
    """Max part footprint (floats) if ``op_name`` were split ``nparts`` ways."""
    return _Plan(graph).estimate(op_name, nparts)


# The collector hold shared by overlapping splits (service workers
# compiling misses side by side): the first holder disables the collector
# if it was enabled, the last one out restores it, so one split leaving
# cannot switch it back on under another, and a caller who disabled it
# finds it disabled.
_hold_lock = threading.Lock()
_holders = 0
_restore = False


def hold_collector() -> None:
    global _holders, _restore
    with _hold_lock:
        if _holders == 0:
            _restore = gc.isenabled()
            gc.disable()
        _holders += 1


def release_collector() -> None:
    global _holders
    with _hold_lock:
        _holders -= 1
        if _holders == 0 and _restore:
            gc.enable()


def make_feasible(
    graph: OperatorGraph,
    capacity_floats: int,
    *,
    max_rounds: int = 64,
) -> SplitReport:
    """Section 3.2 fixpoint: split until every operator fits the device.

    ``capacity_floats`` should already include the fragmentation reserve
    (use :attr:`repro.gpusim.GpuDevice.usable_memory_floats`).  Every
    round is planned on the integer state of :class:`_Plan`; the graph is
    changed in place once, after the round in which everything fits.
    """
    if capacity_floats <= 0:
        raise ValueError("capacity must be positive")
    report = SplitReport()
    if all(graph.op_footprint(o) <= capacity_floats for o in graph.ops):
        for d, ds in graph.data.items():
            if ds.virtual:
                report.partitioned_roots[d] = len(chunks_of(graph, d))
        graph.validate()
        return report
    plan = _Plan(graph)
    # Every part, chunk and slot a split allocates stays alive and none is
    # cyclic, yet each full collection would rescan the growing heap (about
    # a tenth of a 10k-operator split's time): hold the collector meanwhile.
    hold_collector()
    try:
        for round_no in range(max_rounds):
            over = {o for o in plan.ops if plan.footprint(o) > capacity_floats}
            if not over:
                break
            for op_name in [o for o in plan.order() if o in over]:
                if op_name in plan.ops:  # else replaced earlier this round
                    report.split_ops[op_name] = plan.fit(op_name, capacity_floats)
        else:
            raise InfeasibleTemplateError(
                f"splitting did not converge within {max_rounds} rounds"
            )
        report.rounds = round_no
        report.partitioned_roots = {
            d: len(plan.tiles(d)[0])
            for d, rec in plan.data.items()
            if rec is None and (d in plan.virtual or graph.data[d].virtual)
        }
        plan.build()
    finally:
        del plan  # its records die here, not in the collector's next pass
        release_collector()
    graph.validate()
    return report
