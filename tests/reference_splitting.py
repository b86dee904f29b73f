"""The object-surgery splitter, kept as the oracle for ``repro.core.splitting``.

This is the Section 3.2 fixpoint as it was implemented before splitting
became plan-then-build: every split removes the operator, partitions the
touched arrays by creating and retiring chunk data structures, rewires
every producer and consumer through :func:`set_op_io` and adds the part
operators one by one.  :class:`OperatorGraph` is append-only, so the
three rewiring mutators this needs (:func:`set_op_io`,
:func:`remove_operator`, :func:`remove_data_bulk`) live here, as helpers
over the graph's tables that go through its mutator guard.  ``tests/test_splitting_differential.py``
pins :func:`repro.core.make_feasible` to :func:`make_feasible` here —
serialized graph, producer / consumers / children order and
``SplitReport`` — and ``tests/test_splitting.py`` drives the single-step
surgeries (:func:`split_operator`, :func:`partition_data`,
:func:`split_combine`) directly.  Do not change the behaviour of this
file: it is the specification the planner must reproduce.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterable

import numpy as np

from repro.core.graph import (
    GraphError,
    Operator,
    OperatorGraph,
    OutSpec,
    Slot,
    op_out_specs,
    op_slots,
)
from repro.core.splitting import (
    InfeasibleTemplateError,
    SplitReport,
    chunk_range,
    chunks_of,
    select_chunks,
)
from repro.ops import get_impl


# ---------------------------------------------------------------------------
# Rewiring mutators (the former ``OperatorGraph`` methods)
# ---------------------------------------------------------------------------
def remove_operator(graph: OperatorGraph, name: str) -> Operator:
    graph._begin_edit()
    op = graph.ops.pop(name)
    for d in op.outputs:
        del graph.producer[d]
    for d in op.inputs:
        graph.consumers[d].remove(name)
    return op


def set_op_io(
    graph: OperatorGraph,
    op_name: str,
    inputs: Iterable[str],
    outputs: Iterable[str],
) -> None:
    """Rewire an operator's inputs/outputs, keeping indexes consistent.

    An input kept across the rewire whose datum has no producer (a
    template input, e.g. a shared kernel) skips the remove+append
    cycle on its consumers list: only producing operators observe
    consumer order (through ``op_successors``), and a shared input's
    list can hold tens of thousands of split parts — one O(n) removal
    per rewired part is quadratic in the part count.
    """
    graph._begin_edit()
    op = graph.ops[op_name]
    old_in = op.inputs
    new_in = tuple(dict.fromkeys(inputs))
    old_counts: dict[str, int] = {}
    for d in old_in:
        old_counts[d] = old_counts.get(d, 0) + 1
    stable = {
        d
        for d in new_in
        if old_counts.get(d) == 1 and d not in graph.producer
    }
    for d in op.outputs:
        del graph.producer[d]
    for d in old_in:
        if d not in stable:
            graph.consumers[d].remove(op_name)
    new_out = tuple(dict.fromkeys(outputs))
    for d in new_in:
        if d not in graph.data:
            raise GraphError(f"set_op_io({op_name}): unknown input {d!r}")
    for d in new_out:
        if d not in graph.data:
            raise GraphError(f"set_op_io({op_name}): unknown output {d!r}")
        if d in graph.producer:
            raise GraphError(
                f"set_op_io({op_name}): {d!r} already produced by "
                f"{graph.producer[d]!r}"
            )
    op.inputs = new_in
    op.outputs = new_out
    for d in new_out:
        graph.producer[d] = op_name
    for d in new_in:
        if d not in stable:
            graph.consumers[d].append(op_name)


def remove_data_bulk(graph: OperatorGraph, names: Iterable[str]) -> None:
    """Remove several unproduced, unconsumed data structures, compacting
    each shared parent's chunk list in a single pass rather than one
    O(P) scan per removal — the difference between linear and quadratic
    retirement when repartitioning replaces thousands of chunks of one
    root."""
    doomed: list[str] = []
    for name in names:
        if name in graph.producer:
            raise GraphError(f"cannot remove {name!r}: produced by an operator")
        if graph.consumers.get(name):
            raise GraphError(f"cannot remove {name!r}: still consumed")
        doomed.append(name)
    if not doomed:
        return
    graph._begin_edit()
    gone = set(doomed)
    parents: dict[str, None] = {}
    for name in doomed:
        graph.consumers.pop(name, None)
        ds = graph.data.pop(name)
        if ds.parent is not None:
            parents.setdefault(ds.parent)
    for p in parents:
        graph.children[p] = [c for c in graph.children[p] if c not in gone]


def _per_row(graph: OperatorGraph, root: str) -> int:
    ds = graph.data[root]
    return ds.size // max(ds.rows, 1)


def _chunk_name(graph: OperatorGraph, root: str, a: int, b: int) -> str:
    return graph.fresh_name(f"{root}[{a}:{b}]")


# ---------------------------------------------------------------------------
# Data partitioning
# ---------------------------------------------------------------------------
def partition_data(
    graph: OperatorGraph, root: str, boundaries: list[int]
) -> None:
    """Refine the chunk structure of ``root`` with additional row cuts.

    Producers are rewritten to scatter into the refined chunks, consumers
    to gather from the chunks overlapping their slot rows.  Existing cuts
    are kept (refinement only), and chunks whose range is unchanged are
    reused, so repeated partitioning is stable.
    """
    ds = graph.data[root]
    if ds.parent is not None:
        raise GraphError(f"partition_data target {root!r} is itself a chunk")
    rows = ds.rows
    cuts = {c for c in boundaries if 0 < c < rows}
    if not cuts and not ds.virtual:
        return
    old_chunks = chunks_of(graph, root)
    all_bounds = {0, rows} | cuts
    for n in old_chunks:
        if n != root:
            a, b = chunk_range(graph, n)
            all_bounds.update((a, b))
    bounds = sorted(all_bounds)
    new_ranges = list(zip(bounds[:-1], bounds[1:]))
    # Map each old chunk to its (possibly refined) replacement chunks.
    replaced: dict[str, list[str]] = {}
    for oc in old_chunks:
        c0, c1 = chunk_range(graph, oc)
        # Refinement only: every old chunk boundary is in ``bounds``, so
        # the ranges inside [c0, c1) form a contiguous slice.
        sub = new_ranges[bisect_left(bounds, c0) : bisect_left(bounds, c1)]
        if sub == [(c0, c1)] and oc != root:
            continue  # unchanged chunk, keep as-is
        names = []
        for a, b in sub:
            name = _chunk_name(graph, root, a, b)
            graph.add_data(
                name,
                (b - a, *ds.shape[1:]),
                is_input=ds.is_input,
                is_output=ds.is_output,
                parent=root,
                row_range=(a, b),
            )
            names.append(name)
        replaced[oc] = names
    if not replaced:
        return
    # Each rewired operator is handled *once*, expanding every replaced
    # chunk it touches in a single pass.  Rewiring per (chunk, operator)
    # pair — the obvious loop — is quadratic: an operator gathering all
    # P chunks of a root would be rewired P times at O(P) inputs each.
    # ``set_op_io`` moves the operator to the end of the consumers list
    # of each of its inputs, and that order feeds the scheduler, so the
    # batched pass must fire its one rewire per operator at the position
    # of the operator's *last* rewire in the sequential per-chunk order.
    news_bounds = {
        oc: (
            [chunk_range(graph, n)[0] for n in news],
            [chunk_range(graph, n)[1] for n in news],
        )
        for oc, news in replaced.items()
    }
    # Producers, in last-occurrence order over the replaced chunks.
    prod_order: dict[str, None] = {}
    for oc in replaced:
        prod = graph.producer.get(oc)
        if prod is not None:
            prod_order.pop(prod, None)
            prod_order[prod] = None
    for prod in prod_order:
        pop = graph.ops[prod]
        specs = [
            OutSpec(s.root, s.rng, list(s.chunks))
            for s in op_out_specs(pop, graph)
        ]
        for spec in specs:
            if spec.root != root:
                continue
            new_chunks: list[tuple[str, tuple[int, int]]] = []
            for name, rng in spec.chunks:
                news = replaced.get(name)
                if news is not None:
                    new_chunks.extend(
                        (n, chunk_range(graph, n)) for n in news
                    )
                else:
                    new_chunks.append((name, rng))
            spec.chunks = new_chunks
        pop.params["out_specs"] = specs
        outputs = [n for s in specs for n, _ in s.chunks]
        set_op_io(graph, prod, pop.inputs, outputs)
    # Consumers.  Replaying the sequential order needs one more care:
    # rewiring an operator moves it to the end of the consumers lists of
    # the replaced chunks it *keeps*, so at each chunk the sequential
    # loop saw not-yet-rewired consumers in list order followed by
    # already-rewired ones in rewire order.  Simulate that to recover
    # the order of each operator's last rewire, then rewire once each.
    # ``cons_order`` maps consumer -> its last-rewire sequence number;
    # scanning the (large, growing) order per chunk for the handful of
    # members would be quadratic, so look members up and sort by seq.
    cons_order: dict[str, int] = {}
    seq = 0
    for oc in replaced:
        cur = graph.consumers.get(oc, ())
        members = set(cur)
        pending = [c for c in cur if c not in cons_order]
        moved = sorted(
            (c for c in members if c in cons_order),
            key=cons_order.__getitem__,
        )
        for cons in pending + moved:
            cons_order[cons] = seq
            seq += 1
    for cons in sorted(cons_order, key=cons_order.__getitem__):
        cop = graph.ops[cons]
        slots = [
            Slot(s.root, s.rows, list(s.chunks))
            for s in op_slots(cop, graph)
        ]
        for slot in slots:
            if not any(name in replaced for name in slot.chunks):
                continue
            rebuilt: list[str] = []
            for name in slot.chunks:
                news = replaced.get(name)
                if news is None:
                    rebuilt.append(name)
                    continue
                a, b = slot.rows if slot.rows is not None else (0, rows)
                news_starts, news_ends = news_bounds[name]
                rebuilt.extend(
                    news[
                        bisect_right(news_ends, a) : bisect_left(
                            news_starts, b
                        )
                    ]
                )
            slot.chunks = rebuilt
        cop.params["slots"] = slots
        inputs = [n for s in slots for n in s.chunks]
        set_op_io(graph, cons, inputs, cop.outputs)
    # Retire the replaced chunks.  Flipping ``virtual`` bypasses the
    # graph mutators (the ``params`` writes above are each followed by a
    # ``set_op_io``), so drop the graph's caches and fingerprint
    # explicitly — after the last direct write.
    if root in replaced:
        ds.virtual = True
    remove_data_bulk(graph, (oc for oc in replaced if oc != root))
    graph._begin_edit()


# ---------------------------------------------------------------------------
# Operator splitting
# ---------------------------------------------------------------------------
def _clamp(rng: tuple[int, int], rows: int) -> tuple[int, int]:
    a, b = rng
    return (max(0, a), min(rows, b))


def split_operator(
    graph: OperatorGraph, op_name: str, nparts: int
) -> list[str]:
    """Split one operator into ``nparts`` row-parts (graph surgery).

    Returns the names of the part operators (or ``[op_name]`` when no
    split was possible/needed).
    """
    op = graph.ops[op_name]
    impl = get_impl(op.kind)
    if not impl.splittable:
        raise InfeasibleTemplateError(
            f"operator {op_name!r} (kind {op.kind!r}) is not splittable"
        )
    if getattr(impl, "partial_split", False):
        return _split_reduction(graph, op_name, nparts)
    out_specs = op_out_specs(op, graph)
    slots = op_slots(op, graph)
    lo, hi = out_specs[0].rng
    rows_out = hi - lo
    nparts = min(nparts, rows_out)
    min_rows = impl.min_part_rows(op, graph)
    nparts = min(nparts, max(1, rows_out // max(min_rows, 1)))
    if nparts <= 1:
        return [op_name]
    for spec in out_specs[1:]:
        if spec.rng[1] - spec.rng[0] != rows_out:
            raise GraphError(
                f"{op_name}: outputs have differing logical row counts"
            )
    cuts = [lo + (rows_out * i) // nparts for i in range(nparts + 1)]
    part_ranges = list(zip(cuts[:-1], cuts[1:]))
    # Per-part, per-slot required input rows (None = whole input).
    reqs = impl.input_rows_batch(op, graph, part_ranges)
    in_rows0 = graph.data[slots[0].root].rows
    # The original operator goes away first so rewiring skips it.
    original_params = dict(op.params)
    remove_operator(graph, op_name)
    # Partition every split input root at the parts' required-start rows.
    for i, slot in enumerate(slots):
        starts = []
        for p in range(nparts):
            req = reqs[p][i]
            if req is None:
                continue
            root_rows = graph.data[slot.root].rows
            starts.append(_clamp(req, root_rows)[0])
        if starts:
            partition_data(graph, slot.root, starts)
    # Partition every output root at the part boundaries.
    for spec in out_specs:
        off = spec.rng[0] - lo
        partition_data(graph, spec.root, [c + off for c in cuts[1:-1]])
    part_names: list[str] = []
    for p, (a, b) in enumerate(part_ranges):
        part_slots: list[Slot] = []
        for i, slot in enumerate(slots):
            req = reqs[p][i]
            if req is None:
                part_slots.append(
                    Slot(
                        slot.root,
                        slot.rows,
                        select_chunks(graph, slot.root, slot.rows),
                    )
                )
            else:
                root_rows = graph.data[slot.root].rows
                creq = _clamp(req, root_rows)
                part_slots.append(
                    Slot(slot.root, creq, select_chunks(graph, slot.root, creq))
                )
        part_specs: list[OutSpec] = []
        outputs: list[str] = []
        for spec in out_specs:
            off = spec.rng[0] - lo
            ra, rb = a + off, b + off
            chs = [
                (n, chunk_range(graph, n))
                for n in select_chunks(graph, spec.root, (ra, rb))
            ]
            part_specs.append(OutSpec(spec.root, (ra, rb), chs))
            outputs.extend(n for n, _ in chs)
        params = dict(original_params)
        params["slots"] = part_slots
        params["out_specs"] = part_specs
        params["out_range"] = part_specs[0].rng
        params["in_rows"] = in_rows0
        params["part_of"] = original_params.get("part_of", op_name)
        inputs = [n for s in part_slots for n in s.chunks]
        name = graph.fresh_name(f"{op_name}.p{p}")
        graph.add_operator(name, op.kind, inputs, outputs, **params)
        part_names.append(name)
    return part_names


def _combine_tree(
    graph: OperatorGraph,
    op_base: str,
    partials: list[str],
    out_chunks: list[tuple[str, tuple[int, int]]],
    out_root: str,
    fn: str,
    weights: list[int] | None,
    fan_in: int,
) -> list[str]:
    """Merge partials with a tree of ``combine_partials`` operators.

    A flat combine over P partials has footprint (P+1) x row-size; when P
    is large that can itself exceed device memory, so partials are merged
    ``fan_in`` at a time (weighted means carry their row counts up the
    tree).
    """
    created: list[str] = []
    level = list(partials)
    level_weights = list(weights) if weights is not None else None
    cols = graph.data[partials[0]].shape[1]
    round_no = 0
    while len(level) > fan_in:
        nxt: list[str] = []
        nxt_weights: list[int] | None = [] if level_weights is not None else None
        for i in range(0, len(level), fan_in):
            group = level[i : i + fan_in]
            if len(group) == 1:
                nxt.append(group[0])
                if level_weights is not None:
                    nxt_weights.append(level_weights[i])
                continue
            partial = graph.fresh_name(f"{out_root}.merge{round_no}_{i}")
            graph.add_data(partial, (1, cols))
            params: dict = {"fn": fn}
            if level_weights is not None:
                params["weights"] = level_weights[i : i + fan_in]
            params["slots"] = [Slot(d, None, [d]) for d in group]
            params["out_specs"] = [
                OutSpec(partial, (0, 1), [(partial, (0, 1))])
            ]
            name = graph.fresh_name(f"{op_base}.merge{round_no}_{i}")
            graph.add_operator(name, "combine_partials", group, [partial], **params)
            created.append(name)
            nxt.append(partial)
            if level_weights is not None:
                nxt_weights.append(sum(level_weights[i : i + fan_in]))
        level = nxt
        level_weights = nxt_weights
        round_no += 1
    final = graph.fresh_name(f"{op_base}.combine")
    params = {"fn": fn}
    if level_weights is not None:
        params["weights"] = list(level_weights)
    params["slots"] = [Slot(d, None, [d]) for d in level]
    params["out_specs"] = [OutSpec(out_root, (0, 1), list(out_chunks))]
    graph.add_operator(
        final, "combine_partials", level, [n for n, _ in out_chunks], **params
    )
    created.append(final)
    return created


def _split_reduction(
    graph: OperatorGraph, op_name: str, nparts: int
) -> list[str]:
    """Partial-result splitting for reductions (single-row outputs)."""
    op = graph.ops[op_name]
    slots = op_slots(op, graph)
    out_specs = op_out_specs(op, graph)
    in_root = slots[0].root
    in_rows = graph.data[in_root].rows
    rows = slots[0].rows or (0, in_rows)
    lo, hi = rows
    span = hi - lo
    nparts = min(nparts, span)
    if nparts <= 1:
        return [op_name]
    fn = op.params.get("fn", "sum")
    cols = graph.data[in_root].shape[1]
    cuts = [lo + (span * i) // nparts for i in range(nparts + 1)]
    part_ranges = list(zip(cuts[:-1], cuts[1:]))
    original_params = dict(op.params)
    out_chunks = [(n, r) for spec in out_specs for n, r in spec.chunks]
    out_root = out_specs[0].root
    remove_operator(graph, op_name)
    partition_data(graph, in_root, cuts[1:-1])
    part_names: list[str] = []
    partials: list[str] = []
    for p, (a, b) in enumerate(part_ranges):
        partial = graph.fresh_name(f"{out_root}.partial{p}")
        graph.add_data(partial, (1, cols))
        part_slots = [
            Slot(in_root, (a, b), select_chunks(graph, in_root, (a, b)))
        ]
        name = graph.fresh_name(f"{op_name}.p{p}")
        params = dict(original_params)
        params["slots"] = part_slots
        params["out_specs"] = [OutSpec(partial, (0, 1), [(partial, (0, 1))])]
        params["part_of"] = original_params.get("part_of", op_name)
        graph.add_operator(
            name,
            op.kind,
            [n for s in part_slots for n in s.chunks],
            [partial],
            **params,
        )
        part_names.append(name)
        partials.append(partial)
    weights = [b - a for a, b in part_ranges] if fn == "mean" else None
    # Flat combine first; make_feasible rebuilds it as a tree (via
    # split_combine) if it exceeds device memory.
    part_names.extend(
        _combine_tree(
            graph,
            op_name,
            partials,
            out_chunks,
            out_root,
            fn,
            weights,
            fan_in=len(partials),
        )
    )
    return part_names


def split_combine(
    graph: OperatorGraph, op_name: str, fan_in: int
) -> list[str]:
    """Rebuild an over-large ``combine_partials`` as a reduction tree."""
    op = graph.ops[op_name]
    if op.kind != "combine_partials":
        raise GraphError(f"{op_name!r} is not a combine_partials operator")
    if fan_in < 2:
        raise InfeasibleTemplateError(
            f"combine {op_name!r}: even pairwise merging exceeds capacity"
        )
    slots = op_slots(op, graph)
    partials = [s.root for s in slots]
    specs = op_out_specs(op, graph)
    out_chunks = [(n, r) for s in specs for n, r in s.chunks]
    out_root = specs[0].root
    fn = op.params.get("fn", "sum")
    weights = op.params.get("weights")
    base = op.params.get("part_of", op_name)
    remove_operator(graph, op_name)
    return _combine_tree(
        graph,
        graph.fresh_name(base),
        partials,
        out_chunks,
        out_root,
        fn,
        list(weights) if weights is not None else None,
        fan_in,
    )


# ---------------------------------------------------------------------------
# Footprint estimation and the feasibility fixpoint
# ---------------------------------------------------------------------------
def estimate_split(graph: OperatorGraph, op_name: str, nparts: int) -> int:
    """Max part footprint (floats) if ``op_name`` were split ``nparts`` ways.

    Mirrors :func:`split_operator`'s chunk selection analytically, against
    the input partitions as they would look *after* the refinement the
    split itself performs.  Kinds exposing an affine splitting rule
    (:meth:`repro.ops.base.OpImpl.input_rows_affine`) are estimated with
    one vectorized pass over the part-boundary arrays; the per-part loop
    below stays as the general fallback (and the reference the columnar
    path is tested against).
    """
    op = graph.ops[op_name]
    impl = get_impl(op.kind)
    out_specs = op_out_specs(op, graph)
    slots = op_slots(op, graph)
    if getattr(impl, "partial_split", False):
        in_root = slots[0].root
        rows = slots[0].rows or (0, graph.data[in_root].rows)
        span = rows[1] - rows[0]
        nparts = min(nparts, span)
        cols = graph.data[in_root].shape[1]
        per = _per_row(graph, in_root)
        edges = rows[0] + (span * np.arange(nparts + 1, dtype=np.int64)) // nparts
        worst = int(np.diff(edges).max())
        return worst * per + cols
    lo, hi = out_specs[0].rng
    rows_out = hi - lo
    nparts = min(nparts, rows_out)
    if nparts <= 1:
        return graph.op_footprint(op_name)
    coeffs = impl.input_rows_affine(op, graph)
    if coeffs is not None and len(coeffs) == len(slots):
        split_roots = [
            slots[i].root for i in range(len(slots)) if coeffs[i] is not None
        ]
        if len(set(split_roots)) == len(split_roots):
            return _estimate_split_affine(
                graph, op_name, slots, out_specs, coeffs, lo, rows_out, nparts
            )
    cuts = [lo + (rows_out * i) // nparts for i in range(nparts + 1)]
    part_ranges = list(zip(cuts[:-1], cuts[1:]))
    reqs = [impl.input_rows(op, graph, rng) for rng in part_ranges]
    # Refined boundary set per split input root.
    refined: dict[str, list[int]] = {}
    for i, slot in enumerate(slots):
        if all(reqs[p][i] is None for p in range(nparts)):
            continue
        root_rows = graph.data[slot.root].rows
        bounds = {0, root_rows}
        for n in chunks_of(graph, slot.root):
            a, b = chunk_range(graph, n)
            bounds.update((a, b))
        for p in range(nparts):
            req = reqs[p][i]
            if req is not None:
                bounds.add(_clamp(req, root_rows)[0])
        refined[slot.root] = sorted(bounds)
    worst = 0
    for p, (a, b) in enumerate(part_ranges):
        fp = 0
        for spec in out_specs:
            fp += (b - a) * _per_row(graph, spec.root)
        seen: set[str] = set()
        seen_ranges: set[tuple[str, tuple[int, int]]] = set()
        for i, slot in enumerate(slots):
            req = reqs[p][i]
            if req is None:
                for n in slot.chunks:
                    if n not in seen:
                        seen.add(n)
                        fp += graph.data[n].size
                continue
            root_rows = graph.data[slot.root].rows
            ra, rb = _clamp(req, root_rows)
            bounds = refined[slot.root]
            per = _per_row(graph, slot.root)
            # Overlapping refined ranges form a contiguous run of the
            # sorted bounds (range k is [bounds[k], bounds[k+1])).
            k0 = max(0, bisect_right(bounds, ra) - 1)
            k1 = min(len(bounds) - 1, bisect_left(bounds, rb))
            for k in range(k0, k1):
                c0, c1 = bounds[k], bounds[k + 1]
                if c0 < rb and c1 > ra:
                    key = (slot.root, (c0, c1))
                    if key not in seen_ranges:
                        seen_ranges.add(key)
                        fp += (c1 - c0) * per
        worst = max(worst, fp)
    return worst


def _estimate_split_affine(
    graph: OperatorGraph,
    op_name: str,
    slots: list[Slot],
    out_specs: list[OutSpec],
    coeffs: list[tuple[int, int, int, int] | None],
    lo: int,
    rows_out: int,
    nparts: int,
) -> int:
    """Vectorized :func:`estimate_split` for affine splitting rules.

    Evaluates every part's footprint in one numpy pass: part boundaries
    are an ``arange`` expression, each split slot's required range is an
    affine map of those arrays, and the overlapped refined-chunk volume
    per part reduces to a ``searchsorted`` pair against the sorted bound
    array (the refined ranges covering ``[ra, rb)`` are contiguous, so
    their total is ``bounds[hi] - bounds[lo]``).  Requires the split
    slots to have pairwise-distinct roots (the cross-slot range dedup of
    the scalar path can then never fire); the caller checks that.
    """
    idx = np.arange(nparts + 1, dtype=np.int64)
    cuts = lo + (rows_out * idx) // nparts
    a, b = cuts[:-1], cuts[1:]
    per_out = sum(_per_row(graph, spec.root) for spec in out_specs)
    fp = (b - a) * per_out
    # Whole-input slots: constant across parts, dedup chunks by name.
    seen: set[str] = set()
    const = 0
    for i, slot in enumerate(slots):
        if coeffs[i] is not None:
            continue
        for n in slot.chunks:
            if n not in seen:
                seen.add(n)
                const += graph.data[n].size
    for i, slot in enumerate(slots):
        c = coeffs[i]
        if c is None:
            continue
        root_rows = graph.data[slot.root].rows
        ra = np.maximum(0, c[0] * a + c[1])
        rb = np.minimum(root_rows, c[2] * b + c[3])
        bound_set = {0, root_rows}
        for n in chunks_of(graph, slot.root):
            x, y = chunk_range(graph, n)
            bound_set.update((x, y))
        bound_set.update(ra.tolist())
        bounds = np.asarray(sorted(bound_set), dtype=np.int64)
        s = np.searchsorted(bounds, ra, side="right") - 1
        e = np.searchsorted(bounds, rb, side="left")
        fp = fp + np.maximum(0, bounds[e] - bounds[s]) * _per_row(
            graph, slot.root
        )
    return int(fp.max() + const)


def make_feasible(
    graph: OperatorGraph,
    capacity_floats: int,
    *,
    max_rounds: int = 64,
) -> SplitReport:
    """Section 3.2 fixpoint: split until every operator fits the device.

    ``capacity_floats`` should already include the fragmentation reserve
    (use :attr:`repro.gpusim.GpuDevice.usable_memory_floats`).
    """
    if capacity_floats <= 0:
        raise ValueError("capacity must be positive")
    report = SplitReport()
    for round_no in range(max_rounds):
        infeasible = [
            o
            for o in graph.topological_order()
            if graph.op_footprint(o) > capacity_floats
        ]
        if not infeasible:
            report.rounds = round_no
            _record_partitions(graph, report)
            graph.validate()
            return report
        for op_name in infeasible:
            if op_name not in graph.ops:
                continue  # replaced earlier this round
            op = graph.ops[op_name]
            impl = get_impl(op.kind)
            if op.kind == "combine_partials":
                # Over-wide merges become trees with capacity-sized fan-in.
                row = graph.data[op.outputs[0]].size
                fan_in = capacity_floats // max(row, 1) - 1
                parts = split_combine(graph, op_name, fan_in)
                report.split_ops[op_name] = len(parts)
                continue
            if not impl.splittable:
                raise InfeasibleTemplateError(
                    f"operator {op_name!r} (kind {op.kind!r}, footprint "
                    f"{graph.op_footprint(op_name)} floats) exceeds device "
                    f"capacity {capacity_floats} and is not splittable"
                )
            fp = graph.op_footprint(op_name)
            rows_limit = _split_limit(graph, op)
            n = min(max(2, math.ceil(fp / capacity_floats)), rows_limit)
            while estimate_split(graph, op_name, n) > capacity_floats:
                if n >= rows_limit:
                    raise InfeasibleTemplateError(
                        f"operator {op_name!r} cannot fit device memory even "
                        f"when split into {rows_limit} single-row parts"
                    )
                n = min(rows_limit, max(n + 1, math.ceil(n * 1.3)))
            parts = split_operator(graph, op_name, n)
            report.split_ops[op_name] = len(parts)
    raise InfeasibleTemplateError(
        f"splitting did not converge within {max_rounds} rounds"
    )


def _split_limit(graph: OperatorGraph, op) -> int:
    impl = get_impl(op.kind)
    if getattr(impl, "partial_split", False):
        slots = op_slots(op, graph)
        rows = slots[0].rows or (0, graph.data[slots[0].root].rows)
        return rows[1] - rows[0]
    specs = op_out_specs(op, graph)
    return specs[0].rng[1] - specs[0].rng[0]


def _record_partitions(graph: OperatorGraph, report: SplitReport) -> None:
    for d, ds in graph.data.items():
        if ds.virtual:
            report.partitioned_roots[d] = len(chunks_of(graph, d))
