"""Compilation pipeline for multi-device execution.

Mirrors :class:`repro.core.framework.Framework` with two multi-GPU
twists:

* **Splitting for parallelism.**  Single-device compilation splits
  operators only when they do not fit; with N devices, splitting is also
  what *creates* the row bands the partitioner distributes.  The split
  capacity is therefore lowered to roughly ``max-op-footprint / N`` so
  every heavyweight operator decomposes into at least N bands (never
  above the smallest device's real capacity; if the finer split is
  infeasible — halo floors, minimum rows — it falls back to the plain
  capacity split).

* **Partition + device-tagged plan.**  After lowering and the usual
  operator scheduling, :func:`~repro.multigpu.partition.partition_graph`
  assigns devices, and the one transfer scheduler,
  :func:`repro.core.transfers.schedule_transfers`, walks the lowered
  tables with that device column and per-device capacities: it emits a
  plan with the device dimension and explicit peer/staged inter-device
  transfers, validated per device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.columnar import lower
from repro.core.framework import CompileOptions
from repro.core.graph import OperatorGraph
from repro.core.plan import ExecutionPlan, validate_plan
from repro.core.plancache import CachedPlan, PlanCache, default_cache, plan_key
from repro.core.scheduling import dfs_naive_schedule, dfs_schedule, get_scheduler
from repro.core.splitting import InfeasibleTemplateError, SplitReport, make_feasible
from repro.core.transfers import schedule_transfers
from repro.gpusim import DeviceGroup, HostSystem
from repro.obs import Span, Tracer

from .partition import Partition, partition_graph, partition_summary
from .runtime import (
    MultiExecutionResult,
    MultiSimRuntime,
    MultiSimulatedRun,
    execute_multi_plan,
    simulate_multi_plan,
)


@dataclass
class MultiCompiledTemplate:
    """Result of compiling one template for a device group."""

    graph: OperatorGraph
    plan: ExecutionPlan
    op_order: list[str]
    partition: Partition
    split_report: SplitReport
    group: DeviceGroup
    host: HostSystem | None
    options: CompileOptions
    transfer_mode: str = "peer"
    peak_device_floats: int = 0
    spans: list[Span] = field(default_factory=list)

    def transfer_floats(self) -> int:
        return self.plan.transfer_floats(self.graph)

    def summary(self) -> dict[str, object]:
        s: dict[str, object] = dict(self.plan.summary(self.graph))
        s.update(
            devices=len(self.group),
            operators=len(self.graph.ops),
            split_ops=len(self.split_report.split_ops),
            peak_device_floats=self.peak_device_floats,
            partition=partition_summary(self.graph, self.partition),
        )
        return s


def compile_multi(
    template: OperatorGraph,
    group: DeviceGroup,
    *,
    host: HostSystem | None = None,
    options: CompileOptions | None = None,
    transfer_mode: str = "peer",
    plan_cache: PlanCache | bool | None = True,
) -> MultiCompiledTemplate:
    """Compile a template into a validated device-tagged execution plan.

    Like :meth:`repro.core.Framework.compile`, the result is stored in
    the content-addressed plan cache (keyed on graph + group + options +
    transfer mode + host) and repeat compiles return it without
    re-running the pipeline.  Pass ``plan_cache=False`` to opt out.
    """
    opts = options or CompileOptions()
    if plan_cache is True:
        cache: PlanCache | None = default_cache()
    elif plan_cache is False or plan_cache is None:
        cache = None
    else:
        cache = plan_cache
    key: str | None = None
    if cache is not None:
        key = plan_key(
            template,
            group,
            opts,
            kind="multi",
            extra={"transfer_mode": transfer_mode, "host": host},
        )
        entry = cache.get(key)
        if entry is not None:
            return _multi_from_cache(
                entry, key, group, host, opts, transfer_mode
            )
    n = len(group)
    caps = group.usable_memory_floats
    cap_min = min(caps)
    tracer = Tracer()
    with tracer.span(
        "compile_multi",
        template=template.name,
        devices=n,
        transfer_mode=transfer_mode,
        plan_cache="miss" if cache is not None else "off",
    ):
        if cache is not None and key is not None:
            tracer.event("plan_cache", hit=False, key=key[:16])
        graph = template.copy()
        report = SplitReport()
        with tracer.span("splitting", devices=n) as sp:
            if opts.split:
                # With one device this is min(cap_min, max footprint),
                # which splits exactly what ``cap_min`` splits.
                split_cap = min(cap_min, max(1, graph.max_footprint() // n))
                try:
                    report = make_feasible(graph, split_cap)
                except InfeasibleTemplateError:
                    # Finer-than-necessary split infeasible (halo floors,
                    # minimum rows): fall back to the plain capacity split.
                    graph = template.copy()
                    report = make_feasible(graph, cap_min)
            sp.set(split_ops=len(report.split_ops), ops_after=len(graph.ops))
        graph.freeze()
        with tracer.span("lowering", devices=n) as sp:
            col = lower(graph)
            sp.set(ops=col.n_ops, data=col.n_data)
        with tracer.span("operator_scheduling", scheduler=opts.scheduler) as sp:
            scheduler = get_scheduler(opts.scheduler)
            if scheduler in (dfs_schedule, dfs_naive_schedule):
                op_order = scheduler(graph, col)
            else:
                op_order = scheduler(graph)  # greedy/bfs/topo read the graph
            sp.set(ops=len(op_order))
        with tracer.span("partition", devices=n) as sp:
            part = partition_graph(graph, op_order, group, host)
            sp.set(imbalance=part.imbalance)
        policy = opts.eviction_policy
        with tracer.span("transfer_scheduling", policy=policy) as sp:
            plan = schedule_transfers(
                graph,
                op_order,
                caps,
                policy=policy,
                eager_free=opts.eager_free,
                col=col,
                op_device=[part.assignment[o] for o in col.op_names],
                transfer_mode=transfer_mode,
            )
            plan.label = f"multigpu:{n}dev+{policy}+{transfer_mode}+" + (
                "eager" if opts.eager_free else "lazy"
            )
            sp.set(
                steps=len(plan.steps),
                transfer_floats=plan.transfer_floats(graph),
                peer_floats=plan.peer_floats(graph),
            )
        with tracer.span("validate") as sp:
            peak = validate_plan(plan, graph, caps)
            sp.set(peak_device_floats=peak)
    compiled = MultiCompiledTemplate(
        graph=graph,
        plan=plan,
        op_order=op_order,
        partition=part,
        split_report=report,
        group=group,
        host=host,
        options=opts,
        transfer_mode=transfer_mode,
        peak_device_floats=peak,
        spans=sorted(tracer.spans, key=lambda s: s.start),
    )
    if cache is not None and key is not None:
        cache.put(
            key,
            CachedPlan(
                graph=graph,
                plan=plan,
                op_order=list(op_order),
                split_report=report,
                peak_device_floats=peak,
                extra={
                    "partition": {
                        "assignment": dict(part.assignment),
                        "num_devices": part.num_devices,
                        "device_costs": list(part.device_costs),
                    }
                },
            ),
        )
    return compiled


def _multi_from_cache(
    entry: CachedPlan,
    key: str,
    group: DeviceGroup,
    host: HostSystem | None,
    opts: CompileOptions,
    transfer_mode: str,
) -> MultiCompiledTemplate:
    """Rehydrate a multi-device cache hit (partition rides in ``extra``)."""
    tracer = Tracer()
    with tracer.span(
        "compile_multi",
        template=entry.graph.name,
        devices=len(group),
        transfer_mode=transfer_mode,
        plan_cache="hit",
    ):
        tracer.event("plan_cache", hit=True, key=key[:16])
    pe = entry.extra.get("partition", {})
    part = Partition(
        assignment={o: int(d) for o, d in pe.get("assignment", {}).items()},
        num_devices=int(pe.get("num_devices", len(group))),
        device_costs=[float(c) for c in pe.get("device_costs", [])],
    )
    return MultiCompiledTemplate(
        graph=entry.graph,
        plan=entry.plan,
        op_order=list(entry.op_order),
        partition=part,
        split_report=entry.split_report,
        group=group,
        host=host,
        options=opts,
        transfer_mode=transfer_mode,
        peak_device_floats=entry.peak_device_floats,
        spans=sorted(tracer.spans, key=lambda s: s.start),
    )


def execute_multi(
    compiled: MultiCompiledTemplate,
    template_inputs: Mapping[str, np.ndarray],
) -> MultiExecutionResult:
    """Numerically run a compiled template on the simulated device group."""
    mrt = MultiSimRuntime(compiled.group, compiled.host)
    return execute_multi_plan(
        compiled.plan, compiled.graph, mrt, template_inputs
    )


def simulate_multi(compiled: MultiCompiledTemplate) -> MultiSimulatedRun:
    """Analytically time a compiled template on the device group."""
    return simulate_multi_plan(
        compiled.plan, compiled.graph, compiled.group, compiled.host
    )
