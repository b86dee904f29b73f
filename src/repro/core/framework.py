"""End-to-end GPU execution framework (Figure 4).

Ties the compilation steps together exactly as the paper's flow diagram:

    domain-specific template (operator graph)
      -> operator splitting             (satisfy GPU memory constraints)
      -> offload units                  (one operator per unit: no pass)
      -> offload + data transfer scheduling
      -> execution plan
      -> code generation / plan execution

Re-targeting to a different device or data size is just re-compiling the
template against different :class:`~repro.gpusim.GpuDevice` parameters —
the application code does not change (the paper's "performance
portability" claim).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.gpusim import GpuDevice, HostSystem, SimRuntime
from repro.obs import MetricsRegistry, Span, Tracer, provenance_summary
from repro.obs.live.events import publish
from repro.runtime.executor import (
    ExecutionResult,
    SimulatedRun,
    execute_plan,
    simulate_plan,
)

from .baseline import baseline_plan
from .columnar import lower
from .graph import OperatorGraph
from .plan import ExecutionPlan, validate_plan
from .plancache import (
    CachedPlan,
    PlanCache,
    default_cache,
    graph_fingerprint,
    plan_key,
)
from .scheduling import dfs_naive_schedule, dfs_schedule, get_scheduler
from .splitting import SplitReport, make_feasible
from .transfers import schedule_transfers


@dataclass(frozen=True, kw_only=True)
class CompileOptions:
    """Knobs of the compilation pipeline (ablation surface).

    Construction is keyword-only — the option set has grown past the
    point where positional calls stay readable.
    """

    scheduler: str = "dfs"  # dfs | dfs_naive | greedy | bfs | topo
    eviction_policy: str = "belady"  # belady | cost | ltu | lru | fifo
    eager_free: bool = True
    split: bool = True
    #: in the out-of-core regime (template footprint > device memory),
    #: split operators to 1/headroom of capacity instead of just-fitting,
    #: so a whole row band of the pipeline stays resident and streams.
    #: 1.0 reproduces the paper's minimal splitting; "auto" compiles a
    #: small candidate set and keeps the plan with the least transfer
    #: volume (streaming pipelines prefer finer splits, reuse-heavy
    #: graphs like CNNs prefer minimal ones).
    split_headroom: float | str = "auto"

    def headroom_candidates(self) -> tuple[float, ...]:
        if self.split_headroom == "auto":
            return (1.0, 2.0, 4.0)
        return (float(self.split_headroom),)


@dataclass
class CompiledTemplate:
    """Result of compiling one template for one device."""

    graph: OperatorGraph  # the (possibly split) working graph, frozen
    plan: ExecutionPlan
    op_order: list[str]
    split_report: SplitReport
    device: GpuDevice
    host: HostSystem | None
    options: CompileOptions
    peak_device_floats: int = 0
    #: wall-clock trace spans of every compilation phase (repro.obs)
    spans: list[Span] = field(default_factory=list)
    #: metrics snapshot of the compilation (plan gauges, reason counters)
    metrics: dict[str, object] = field(default_factory=dict)

    def transfer_floats(self) -> int:
        return self.plan.transfer_floats(self.graph)

    def summary(self) -> dict[str, object]:
        s: dict[str, object] = dict(self.plan.summary(self.graph))
        s.update(
            device=self.device.name,
            operators=len(self.graph.ops),
            split_ops=len(self.split_report.split_ops),
            peak_device_floats=self.peak_device_floats,
        )
        return s


class Framework:
    """The proposed GPU execution framework, bound to one target platform."""

    def __init__(
        self,
        device: GpuDevice,
        *,
        host: HostSystem | None = None,
        options: CompileOptions | None = None,
        plan_cache: PlanCache | bool | None = True,
    ) -> None:
        self.device = device
        self.host = host
        self.options = options or CompileOptions()
        # True -> the process-default cache; False/None -> caching off;
        # a PlanCache instance -> that cache (tests, isolated benchmarks).
        if plan_cache is True:
            self.plan_cache: PlanCache | None = default_cache()
        elif plan_cache is False or plan_cache is None:
            self.plan_cache = None
        else:
            self.plan_cache = plan_cache

    # -- compilation -----------------------------------------------------------
    def compile(
        self,
        template: OperatorGraph,
        *,
        options: CompileOptions | None = None,
    ) -> CompiledTemplate:
        """Produce an optimized, validated execution plan for the template.

        ``options`` overrides the framework's construction-time options
        for this one compile (the facade and the execution service use
        this to serve per-request options from one shared Framework).

        With ``split_headroom="auto"`` (the default) several split
        granularities are compiled and the plan with the least transfer
        volume wins — transfer volume is a static property of the plan,
        so the selection costs only compile time, never execution time.
        Candidates whose split graphs coincide share one scheduling and
        transfer pipeline instead of recompiling identical work.

        Compilation is deterministic, so the result is stored in the
        content-addressed plan cache (keyed on graph + device + options)
        and repeat compiles return it without re-running the pipeline.
        Pass ``plan_cache=False`` to the constructor to opt out.
        """
        opts = options if options is not None else self.options
        publish(
            "compile.start",
            template=template.name,
            device=self.device.name,
        )
        cache = self.plan_cache
        key: str | None = None
        if cache is not None:
            key = plan_key(template, self.device, opts)
            entry = cache.get(key)
            if entry is not None:
                compiled = self._compile_from_cache(entry, key, opts)
                publish(
                    "compile.done",
                    template=template.name,
                    cached=True,
                    seconds=sum(s.duration for s in compiled.spans),
                )
                return compiled
        try:
            return self._compile_miss(template, opts, cache, key)
        except BaseException:
            # A shared cross-process cache may have elected this compile
            # the per-key leader at get() time; failing without abandon()
            # would leave followers waiting on a fill that never lands.
            if cache is not None and key is not None:
                cache.abandon(key)
            raise

    def _compile_miss(
        self,
        template: OperatorGraph,
        opts: "CompileOptions",
        cache: PlanCache | None,
        key: str | None,
    ) -> "CompiledTemplate":
        capacity = self.device.usable_memory_floats
        out_of_core = opts.split and template.total_data_size() > capacity
        candidates = opts.headroom_candidates() if out_of_core else (1.0,)
        # Plan the candidate set on the read-only template: a candidate
        # whose split capacity covers the largest operator footprint has
        # nothing to split, so ``make_feasible`` would hand back the
        # template itself.  All such candidates share one working copy
        # and one pipeline run; only candidates that really split are
        # told apart by fingerprinting their split graphs.  (A single
        # candidate is compared with nothing, so its footprint is moot.)
        split_caps = [
            max(1, int(capacity / h)) if h > 1.0 else capacity
            for h in candidates  # h > 1.0 only ever out of core
        ]
        footprint = template.max_footprint() if len(candidates) > 1 else 0
        dedupe: dict[str, tuple[CompiledTemplate, dict[str, int]]] | None = (
            {} if sum(cap < footprint for cap in split_caps) > 1 else None
        )
        tracer = Tracer()
        best: CompiledTemplate | None = None
        best_reasons: dict[str, int] = {}
        best_headroom = candidates[0]
        unsplit: tuple[CompiledTemplate, dict[str, int]] | None = None
        with tracer.span(
            "compile",
            template=template.name,
            device=self.device.name,
            out_of_core=out_of_core,
            candidates=len(candidates),
            plan_cache="miss" if cache is not None else "off",
        ) as root:
            if cache is not None and key is not None:
                tracer.event("plan_cache", hit=False, key=key[:16])
            for headroom, split_cap in zip(candidates, split_caps):
                splits = split_cap < footprint
                if unsplit is not None and not splits:
                    tracer.event(
                        "candidate_dedupe", headroom=headroom, graph="unsplit"
                    )
                    compiled, reasons = unsplit
                else:
                    compiled, reasons = self._compile_once(
                        template, opts, capacity, split_cap, headroom, tracer,
                        dedupe if splits else None,
                    )
                    if not splits:
                        unsplit = compiled, reasons
                if best is None or (
                    compiled.transfer_floats(),
                    len(compiled.plan.launches()),
                ) < (best.transfer_floats(), len(best.plan.launches())):
                    best, best_reasons = compiled, reasons
                    best_headroom = headroom
            assert best is not None
            root.set(
                selected_headroom=best_headroom,
                transfer_floats=best.transfer_floats(),
                launches=len(best.plan.launches()),
            )
        best.spans = sorted(tracer.spans, key=lambda s: s.start)
        best.metrics = self._compile_metrics(
            best, len(candidates), tracer, best_reasons, cache=cache
        )
        if cache is not None and key is not None:
            cache.put(
                key,
                CachedPlan(
                    graph=best.graph,
                    plan=best.plan,
                    op_order=list(best.op_order),
                    split_report=best.split_report,
                    peak_device_floats=best.peak_device_floats,
                    metrics=best.metrics,
                ),
            )
        publish(
            "compile.done",
            template=template.name,
            cached=False,
            seconds=tracer.total_time(),
            candidates=len(candidates),
            launches=len(best.plan.launches()),
        )
        return best

    def _compile_from_cache(
        self, entry: CachedPlan, key: str, opts: CompileOptions | None = None
    ) -> CompiledTemplate:
        """Rehydrate a cache hit as a fresh :class:`CompiledTemplate`.

        The graph/plan/split-report objects are shared with the cache
        entry (the graph is frozen, the executors only read the rest); the
        op-order list is copied
        because callers may reorder it.  The compile-metrics snapshot is
        reused from fill time with the cache counters and wall time
        overlaid, so a warm compile never re-walks the plan.
        """
        tracer = Tracer()
        with tracer.span(
            "compile",
            template=entry.graph.name,
            device=self.device.name,
            plan_cache="hit",
        ) as root:
            tracer.event("plan_cache", hit=True, key=key[:16])
            root.set(launches=len(entry.op_order))
        compiled = CompiledTemplate(
            graph=entry.graph,
            plan=entry.plan,
            op_order=list(entry.op_order),
            split_report=entry.split_report,
            device=self.device,
            host=self.host,
            options=opts if opts is not None else self.options,
            peak_device_floats=entry.peak_device_floats,
        )
        compiled.spans = sorted(tracer.spans, key=lambda s: s.start)
        compiled.metrics = self._cache_hit_metrics(
            entry.metrics, tracer, self.plan_cache
        )
        return compiled

    @staticmethod
    def _cache_hit_metrics(
        entry_metrics: dict[str, Any],
        tracer: Tracer,
        cache: PlanCache | None,
    ) -> dict[str, Any]:
        # The snapshot is MetricsRegistry.snapshot()'s fixed shape —
        # section -> name -> number | {"value", "peak"} — so two levels
        # of dict copies isolate the caller from the cache entry.
        snap = {
            section: {
                name: dict(v) if isinstance(v, dict) else v
                for name, v in values.items()
            }
            for section, values in entry_metrics.items()
        }
        counters = snap.setdefault("counters", {})
        counters["plan_cache.hit"] = 1
        counters["plan_cache.miss"] = 0
        gauges = snap.setdefault("gauges", {})
        wall = tracer.total_time()
        gauges["compile.wall_seconds"] = {"value": wall, "peak": wall}
        if cache is not None:
            n = len(cache)
            gauges["plan_cache.entries"] = {"value": n, "peak": n}
        return snap

    @staticmethod
    def _compile_metrics(
        compiled: CompiledTemplate,
        candidates: int,
        tracer: Tracer,
        reasons: dict[str, int],
        cache: PlanCache | None = None,
    ) -> dict[str, object]:
        """The compile's metrics snapshot; ``reasons`` is the plan's
        :func:`provenance_summary`, tallied once by the caller."""
        metrics = MetricsRegistry()
        if cache is not None:
            metrics.counter("plan_cache.hit")
            metrics.counter("plan_cache.miss").inc(1)
            metrics.gauge("plan_cache.entries").set(len(cache))
        metrics.counter("compile.candidates").inc(candidates)
        metrics.counter("compile.split_ops").inc(
            len(compiled.split_report.split_ops)
        )
        metrics.gauge("compile.split_rounds").set(compiled.split_report.rounds)
        metrics.gauge("compile.wall_seconds").set(tracer.total_time())
        for key, value in compiled.plan.summary(compiled.graph).items():
            metrics.gauge(f"plan.{key}").set(value)
        metrics.gauge("plan.peak_device_floats").set(
            compiled.peak_device_floats
        )
        for reason, count in reasons.items():
            metrics.counter(f"plan.reason.{reason}").inc(count)
        return metrics.snapshot()

    def _compile_once(
        self,
        template: OperatorGraph,
        opts: CompileOptions,
        capacity: int,
        split_cap: int,
        headroom: float,
        tracer: Tracer,
        dedupe: dict[str, tuple[CompiledTemplate, dict[str, int]]] | None,
    ) -> tuple[CompiledTemplate, dict[str, int]]:
        """One candidate: split a working copy to ``split_cap``, freeze
        it, plan it.

        Returns the result and its plan's provenance tally (counted once,
        for the span here and the metrics of the winner).  ``dedupe``
        (fingerprint -> both) is passed for candidates that may split to
        the same graph as an earlier one.
        """
        graph = template.copy()
        with tracer.span("splitting", headroom=headroom) as sp:
            if opts.split:
                report = make_feasible(graph, split_cap)
            else:
                report = SplitReport()
            sp.set(
                split_ops=len(report.split_ops),
                rounds=report.rounds,
                ops_after=len(graph.ops),
            )
        graph.freeze()
        fp: str | None = None
        if dedupe is not None:
            # Candidates that split to the same graph would schedule
            # identical work; fingerprint the split graph and hand back
            # the earlier candidate's result instead.
            fp = graph_fingerprint(graph)
            prior = dedupe.get(fp)
            if prior is not None:
                tracer.event(
                    "candidate_dedupe", headroom=headroom, graph=fp[:16]
                )
                return prior
        with tracer.span("lowering", headroom=headroom) as sp:
            col = lower(graph)
            sp.set(ops=col.n_ops, data=col.n_data)
        with tracer.span(
            "operator_scheduling", headroom=headroom, scheduler=opts.scheduler
        ) as sp:
            scheduler = get_scheduler(opts.scheduler)
            if scheduler in (dfs_schedule, dfs_naive_schedule):
                op_order = scheduler(graph, col)
            else:
                op_order = scheduler(graph)  # greedy/bfs/topo read the graph
            sp.set(ops=len(op_order))
        with tracer.span(
            "transfer_scheduling", headroom=headroom, policy=opts.eviction_policy
        ) as sp:
            plan = schedule_transfers(
                graph,
                op_order,
                capacity,
                policy=opts.eviction_policy,
                eager_free=opts.eager_free,
                col=col,
            )
            reasons = provenance_summary(plan)
            sp.set(
                steps=len(plan.steps),
                transfer_floats=plan.transfer_floats(graph),
                evictions=reasons.get("evicted", 0),
            )
        with tracer.span("validate", headroom=headroom) as sp:
            peak = validate_plan(plan, graph, capacity)
            sp.set(peak_device_floats=peak)
        compiled = CompiledTemplate(
            graph=graph,
            plan=plan,
            op_order=op_order,
            split_report=report,
            device=self.device,
            host=self.host,
            options=opts,
            peak_device_floats=peak,
        )
        if dedupe is not None and fp is not None:
            dedupe[fp] = compiled, reasons
        return compiled, reasons

    def compile_incremental(
        self,
        template: OperatorGraph,
        *,
        options: CompileOptions | None = None,
    ):
        """Fragment-cached compilation for edit-heavy workflows.

        Partitions the template into independent fragments, recompiles
        only those whose content fingerprint misses the plan cache, and
        stitches the fragment plans into one validated plan.  Returns an
        :class:`repro.core.incremental.IncrementalCompiled`; see that
        module for the trade-off against :meth:`compile`.
        """
        from .incremental import compile_incremental

        return compile_incremental(self, template, options=options)

    def compile_baseline(self, template: OperatorGraph) -> CompiledTemplate:
        """The paper's baseline plan for the same template (unsplit)."""
        graph = template.copy()
        capacity = self.device.usable_memory_floats
        tracer = Tracer()
        with tracer.span(
            "compile_baseline", template=template.name, device=self.device.name
        ):
            plan = baseline_plan(graph, capacity)
            op_order = plan.launches()
            peak = validate_plan(plan, graph, capacity)
        compiled = CompiledTemplate(
            graph=graph,
            plan=plan,
            op_order=op_order,
            split_report=SplitReport(),
            device=self.device,
            host=self.host,
            options=CompileOptions(split=False),
            peak_device_floats=peak,
        )
        compiled.spans = sorted(tracer.spans, key=lambda s: s.start)
        compiled.metrics = self._compile_metrics(
            compiled, 1, tracer, provenance_summary(plan)
        )
        return compiled

    # -- execution --------------------------------------------------------------
    def execute(
        self,
        compiled: CompiledTemplate,
        template_inputs: Mapping[str, np.ndarray],
    ) -> ExecutionResult:
        """Numerically run a compiled template on the simulated device."""
        runtime = SimRuntime(self.device, self.host)
        return execute_plan(compiled.plan, compiled.graph, runtime, template_inputs)

    def simulate(self, compiled: CompiledTemplate) -> SimulatedRun:
        """Analytically time a compiled template (paper-scale workloads)."""
        return simulate_plan(
            compiled.plan, compiled.graph, self.device, self.host
        )


def run_template(
    template: OperatorGraph,
    template_inputs: Mapping[str, np.ndarray],
    device: GpuDevice,
    *,
    host: HostSystem | None = None,
    options: CompileOptions | None = None,
) -> ExecutionResult:
    """One-call convenience API: compile + execute a template.

    This is the "parametrized API" face of the framework that the paper
    argues domain experts should program against.
    """
    fw = Framework(device, host=host, options=options)
    compiled = fw.compile(template)
    return fw.execute(compiled, template_inputs)
