"""Incremental recompilation: fragment fingerprints + plan stitching.

Large templates are usually *forests*: a video clip is thousands of
per-frame pipelines sharing only a read-only filter bank, a batch
template is many independent branches.  Editing one branch of a
10k-operator template should not replan the other 9,900 operators — the
paper's compile-time story (Section 3.3's "compilation is fast enough to
run per input size") only scales if recompiles are proportional to the
*edit*, not the template.

This module makes compile time proportional to the dirty slice:

* :func:`graph_fragments` partitions the operator graph into independent
  **fragments** — weakly-connected components where read-only template
  inputs do not connect (a shared filter bank must not glue otherwise
  independent branches together);
* each fragment is extracted as a standalone subgraph
  (:func:`extract_fragment`) and fingerprinted with the plan cache's
  content-hash key discipline (``plan_key(..., kind="fragment")``) — the
  same graph fingerprint that keys whole-template plans, namespaced so
  fragment entries never collide with them;
* :func:`compile_incremental` compiles only the fragments whose
  fingerprint misses the cache (the full pipeline: splitting, candidate
  headrooms, scheduling, transfers) and **stitches** cached and fresh
  fragment plans back into one :class:`ExecutionPlan`, checked step by
  step when it runs.

Fragments are independent by construction — no produced datum crosses a
fragment boundary — so concatenating their plans is valid: each fragment
plan drains the device before the next begins, and shared template
inputs are simply re-uploaded per fragment.  The stitched plan is
therefore *not* byte-identical to a monolithic compile (which may
interleave fragments and keep shared inputs resident); it trades a small
amount of transfer volume for edit-proportional compile time.  For that
reason stitched results are never stored under the standard
whole-template plan key — only fragments are cached, under their own
``kind="fragment"`` keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs import Tracer
from ..obs.live.events import publish
from .framework import CompiledTemplate, CompileOptions, Framework
from .graph import OperatorGraph, clone_data, clone_operator
from .plan import ExecutionPlan, Step
from .plancache import CachedPlan, plan_key
from .splitting import SplitReport


# ---------------------------------------------------------------------------
# Fragment partition
# ---------------------------------------------------------------------------
def graph_fragments(graph: OperatorGraph) -> list[list[str]]:
    """Partition operators into independent fragments.

    Two operators share a fragment iff they are connected through a
    *produced* datum (one writes it, the other reads it, or both read
    it).  Read-only template inputs do not connect: branches sharing a
    kernel or filter bank stay separate fragments — re-uploading a small
    shared input per fragment is the price of replanning branches
    independently.

    Returns op-name lists, each in template insertion order, ordered by
    their first operator's insertion position (deterministic, so the
    fragment sequence — and the stitched plan — is reproducible).
    """
    ops = list(graph.ops)
    idx = {o: i for i, o in enumerate(ops)}
    parent = list(range(len(ops)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for d, ds in graph.data.items():
        if ds.is_input or ds.virtual:
            continue
        members = []
        p = graph.producer.get(d)
        if p is not None:
            members.append(idx[p])
        members.extend(idx[c] for c in graph.consumers.get(d, ()))
        for m in members[1:]:
            union(members[0], m)

    groups: dict[int, list[str]] = {}
    for i, o in enumerate(ops):
        groups.setdefault(find(i), []).append(o)
    # group root = smallest member index; ops were appended in order, so
    # groups[r][0] is each fragment's first operator.
    return [groups[r] for r in sorted(groups)]


def extract_fragment(
    graph: OperatorGraph, op_names: list[str], *, name: str | None = None
) -> OperatorGraph:
    """The standalone subgraph induced by one fragment's operators.

    Carries every datum the fragment touches (shared template inputs are
    duplicated into each fragment that reads them), with consumer lists
    filtered to fragment members and insertion order preserved — the
    extraction is deterministic, so the fragment's content hash is too.
    The fragment is returned frozen.
    """
    opset = set(op_names)
    sub = OperatorGraph(name or f"{graph.name}::fragment")
    needed: dict[str, None] = {}
    for o, op in graph.ops.items():
        if o not in opset:
            continue
        for d in op.inputs:
            needed.setdefault(d)
        for d in op.outputs:
            needed.setdefault(d)
    # chunk data needs its (possibly virtual) ancestors for row queries
    for d in list(needed):
        p = graph.data[d].parent
        while p is not None and p not in needed:
            needed.setdefault(p)
            p = graph.data[p].parent
    for d, ds in graph.data.items():
        if d not in needed:
            continue
        sub.data[d] = clone_data(ds)
        sub.consumers[d] = [
            c for c in graph.consumers.get(d, ()) if c in opset
        ]
        if ds.parent is not None:
            sub.children.setdefault(ds.parent, []).append(d)
    for o, op in graph.ops.items():
        if o not in opset:
            continue
        sub.ops[o] = clone_operator(op)
        for d in op.outputs:
            sub.producer[d] = o
    return sub.freeze()


def fragment_key(
    fragment: OperatorGraph, device, options: CompileOptions
) -> str:
    """Content fingerprint of one fragment compilation (cache key).

    Reuses :func:`~repro.core.plancache.plan_key` (and so the one graph
    fingerprint); the ``kind="fragment"`` namespace keeps fragment
    entries disjoint from whole-template plans even for a
    single-fragment template.
    """
    return plan_key(fragment, device, options, kind="fragment")


# ---------------------------------------------------------------------------
# Incremental compilation
# ---------------------------------------------------------------------------
@dataclass
class IncrementalCompiled:
    """A stitched plan plus the fragment-reuse accounting."""

    compiled: CompiledTemplate
    total_fragments: int
    reused_fragments: int
    fragment_keys: list[str] = field(default_factory=list)

    @property
    def reuse_ratio(self) -> float:
        if not self.total_fragments:
            return 0.0
        return self.reused_fragments / self.total_fragments


def compile_incremental(
    framework: Framework,
    template: OperatorGraph,
    *,
    options: CompileOptions | None = None,
) -> IncrementalCompiled:
    """Compile ``template`` fragment-by-fragment, reusing cached fragments.

    Cold, this runs the full pipeline once per fragment and fills the
    fragment cache.  After an edit, only fragments whose content hash
    changed are recompiled — a one-branch edit of a 10k-operator forest
    replans one branch.  See module docstring for why the stitched plan
    is a distinct artifact from the monolithic ``Framework.compile``.
    """
    opts = options if options is not None else framework.options
    cache = framework.plan_cache
    device = framework.device
    capacity = device.usable_memory_floats
    tracer = Tracer()
    publish(
        "compile_incremental.start",
        template=template.name,
        device=device.name,
    )
    fragments = graph_fragments(template)
    entries: list[CachedPlan] = []
    keys: list[str] = []
    reused = 0
    with tracer.span(
        "compile_incremental",
        template=template.name,
        device=device.name,
        fragments=len(fragments),
    ) as root:
        for i, op_names in enumerate(fragments):
            sub = extract_fragment(template, op_names)
            key = fragment_key(sub, device, opts)
            keys.append(key)
            entry = cache.get(key) if cache is not None else None
            if entry is not None:
                reused += 1
                tracer.event(
                    "fragment_cache",
                    index=i,
                    hit=True,
                    key=key[:16],
                    ops=len(op_names),
                )
                entries.append(entry)
                continue
            tracer.event(
                "fragment_cache",
                index=i,
                hit=False,
                key=key[:16],
                ops=len(op_names),
            )
            try:
                with tracer.span("fragment_compile", index=i, ops=len(op_names)):
                    # the standard pipeline, minus whole-plan caching
                    compiled = framework._compile_miss(sub, opts, None, None)
            except BaseException:
                # A shared cache may have elected us the per-key leader;
                # release it so followers stop waiting on a dead fill.
                if cache is not None:
                    cache.abandon(key)
                raise
            entry = CachedPlan(
                graph=compiled.graph,
                plan=compiled.plan,
                op_order=compiled.op_order,
                split_report=compiled.split_report,
                peak_device_floats=compiled.peak_device_floats,
                extra={"source": compiled.source},
            )
            if cache is not None:
                cache.put(key, entry)
            entries.append(entry)
        with tracer.span("stitch", fragments=len(fragments)) as sp:
            stitched = _stitch(framework, template, entries, opts, capacity)
            sp.set(steps=len(stitched.plan.steps))
        root.set(reused=reused, compiled=len(fragments) - reused)
    stitched.spans = sorted(tracer.spans, key=lambda s: s.start)
    publish(
        "compile_incremental.done",
        template=template.name,
        fragments=len(fragments),
        reused=reused,
        seconds=tracer.total_time(),
    )
    return IncrementalCompiled(
        compiled=stitched,
        total_fragments=len(fragments),
        reused_fragments=reused,
        fragment_keys=keys,
    )


def _stitch(
    fw: Framework,
    template: OperatorGraph,
    entries: list[CachedPlan],
    opts: CompileOptions,
    capacity: int,
) -> CompiledTemplate:
    """Concatenate fragment plans into one whole-template plan.

    Fragment plans each end with the device drained, and no produced
    datum crosses fragments, so concatenation in fragment order is a
    valid schedule; shared template inputs are re-uploaded per fragment
    (their earlier copy was freed in that fragment's drain).

    Data structures, operators and plan steps are *shared* with the
    cache entries rather than copied — their graphs are frozen, and so
    is the stitched one — so stitching stays cheap (proportional to step
    count, not a deep copy of 100k-op graphs).
    """
    g = OperatorGraph(template.name)
    steps: list[Step] = []
    op_order: list[str] = []
    split_ops: dict = {}
    partitioned: dict = {}
    rounds = 0
    with_notes = all(
        len(e.plan.notes) == len(e.plan.steps) for e in entries
    )
    notes: list[str] = []
    for entry in entries:
        eg = entry.graph
        for d, ds in eg.data.items():
            if d in g.data:
                continue  # a template input shared across fragments
            g.data[d] = ds
        for d, cons in eg.consumers.items():
            g.consumers.setdefault(d, []).extend(cons)
        for k, v in eg.children.items():
            have = g.children.setdefault(k, [])
            seen = set(have)
            have.extend(c for c in v if c not in seen)
        for o, op in eg.ops.items():
            g.ops[o] = op
            for d in op.outputs:
                g.producer[d] = o
        steps.extend(entry.plan.steps)
        if with_notes:
            notes.extend(entry.plan.notes)
        op_order.extend(entry.op_order)
        split_ops.update(entry.split_report.split_ops)
        partitioned.update(entry.split_report.partitioned_roots)
        rounds = max(rounds, entry.split_report.rounds)
    g.freeze()
    plan = ExecutionPlan(
        steps=steps,
        capacity_floats=capacity,
        label="incremental",
        notes=notes,
    )
    # Every fragment plan was validated at fill time and ends with the
    # device drained, so the concatenation's occupancy timeline is the
    # fragment timelines back to back: the stitched peak is exactly the
    # max of the fragment peaks.  The stitch is not walked here (100k
    # steps would make the warm path O(template) instead of O(edit)); the
    # residency machine checks the stitched plan when it runs.
    peak = max((e.peak_device_floats for e in entries), default=0)
    # PB-planned fragments stitch into a feasible, not a proven, optimum.
    sources = {e.extra.get("source", "heuristic") for e in entries}
    return CompiledTemplate(
        graph=g,
        plan=plan,
        op_order=tuple(op_order),
        split_report=SplitReport(
            rounds=rounds,
            split_ops=split_ops,
            partitioned_roots=partitioned,
        ),
        device=fw.device,
        host=fw.host,
        options=opts,
        peak_device_floats=peak,
        source="heuristic" if sources <= {"heuristic"} else "pb-incumbent",
    )
