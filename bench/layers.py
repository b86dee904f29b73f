"""The per-layer table of a traced run.

Layers are this repository's modules.  Every probe calls a layer's
public functions *from outside* and is looked up by name when it runs
(:func:`bench.trace.resolve`): when a ROADMAP deletion removes
``runtime/overlap.py``, the object planner or ``_compat``, the probe
reports ``absent`` (:data:`bench.spec.ABSENT`) instead of failing.

* compile: the pipeline is driven stage by stage (``make_feasible`` ->
  ``lower`` -> ``dfs_schedule_columnar`` ->
  ``schedule_transfers_columnar`` -> ``validate_plan``) and the staged
  plan must serialise identically to ``Framework.compile``'s, so the
  table measures the same work;
* serving: ``plan_key``, ``encode_frame``, ``HashRing.route``,
  ``submit()`` and ``Ticket.result()`` are wrapped in spans, and
  ``wait_seconds``/``service_seconds`` are read off each response.

End-to-end metrics never come from here.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import time
from statistics import fmean as mean
from typing import Any, Callable, Iterator

import numpy as np

from repro import CompileOptions
from repro.core import OperatorGraph

from .lifecycle import Lifecycle, settle_heap
from .serve import Mix, closed_loop, start_service
from .spec import ABSENT
from .stats import geomean, median, percentile
from .trace import Recorder, resolve, wrapped
from .workloads import Serve

STAGES = ("make_feasible", "lower", "dfs_schedule_columnar",
          "schedule_transfers_columnar", "validate_plan")


def raw(samples: Any) -> list[float]:
    """Measured values of ``(interval, value)`` samples: the layer table
    is in measured seconds of its own run (it has no bounds to hold)."""
    return [value for _, value in samples]


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def per_call_us(fn: Callable[[], Any], calls: int) -> float:
    """Median microseconds per call over five batches of ``calls``."""
    batches = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        batches.append((time.perf_counter() - t0) / calls)
    return median(batches) * 1e6


@contextlib.contextmanager
def serve_instrumentation(rec: Recorder) -> Iterator[None]:
    """Spans around the request path's layer boundaries (this process
    only: a shard's own key/compile work shows up as execute time)."""

    def frame_size(rec: Recorder, _args: tuple, frame: bytes) -> None:
        rec.count("frames")
        rec.count("frame_bytes", len(frame))

    with contextlib.ExitStack() as stack:
        for target in ("repro.service.service:plan_key",
                       "repro.service.shard:plan_key",
                       "repro.core.framework:plan_key"):
            stack.enter_context(wrapped(rec, target, "key"))
        stack.enter_context(
            wrapped(rec, "repro.service.hashring:HashRing.route", "route"))
        stack.enter_context(
            wrapped(rec, "repro.service.ipc:encode_frame", "encode", frame_size))
        yield


# ---------------------------------------------------------------------------
# Compile layers
# ---------------------------------------------------------------------------
def staged_compile(rec: Recorder, case: Any, template: OperatorGraph,
                   fns: dict[str, Any]) -> dict[str, Any]:
    """``Framework.compile``'s pipeline, one public stage at a time."""
    opts = case.options or CompileOptions()
    capacity = case.device.usable_memory_floats
    out_of_core = opts.split and template.total_data_size() > capacity
    candidates = opts.headroom_candidates() if out_of_core else (1.0,)
    seen: set[str] = set()
    best: dict[str, Any] | None = None
    for headroom in candidates:
        graph = template.copy()
        split_cap = capacity
        if headroom > 1.0 and out_of_core:
            split_cap = max(1, int(capacity / headroom))
        with rec.span("core.splitting"):
            report = fns["make_feasible"](graph, split_cap) if opts.split else None
        if len(candidates) > 1:
            fingerprint = hashlib.sha256(json.dumps(
                fns["graph_to_dict"](graph), sort_keys=True,
                separators=(",", ":")).encode("utf-8")).hexdigest()
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
        with rec.span("core.columnar.lower"):
            col = fns["lower"](graph)
        with rec.span("core.columnar.schedule"):
            order = fns["dfs_schedule_columnar"](graph, col)
        with rec.span("core.columnar.transfers"):
            plan = fns["schedule_transfers_columnar"](
                graph, order, capacity, policy=opts.eviction_policy,
                eager_free=opts.eager_free, col=col,
            )
        with rec.span("core.plan.validate"):
            fns["validate_plan"](plan, graph, capacity)
        rank = (plan.transfer_floats(graph), len(plan.launches()))
        if best is None or rank < best["rank"]:
            best = dict(rank=rank, plan=plan, graph=graph, report=report,
                        n_data=col.n_data)
    assert best is not None
    best["candidates"] = len(candidates)
    return best


def compile_layers(life: Lifecycle, rec: Recorder) -> dict[str, float]:
    out: dict[str, float] = {}
    wl = life.wl
    fns = {name: resolve(f"repro.core:{name}") for name in
           STAGES + ("graph_to_dict", "plan_to_dict", "plan_key")}
    singles = [c for c in wl.compile if c.device is not None]
    stage_names = ("core.splitting", "core.columnar.lower",
                   "core.columnar.schedule", "core.columnar.transfers",
                   "core.plan.validate")
    staged_keys = [f"{s}.s" for s in stage_names] + [
        "core.splitting.ops_after", "core.splitting.rounds",
        "core.splitting.split_ops", "core.columnar.n_data",
        "core.columnar.steps", "core.columnar.evictions",
        "core.framework.other.s", "core.framework.candidates",
    ]
    if all(fns[name] is not None for name in STAGES + ("graph_to_dict", "plan_to_dict")):
        totals = dict.fromkeys(staged_keys, 0.0)
        for case in singles:
            settle_heap()  # the heap state Framework.compile was timed in
            with rec.span("staged_compile"):
                best = staged_compile(rec, case, life.graphs[case.name], fns)
            direct = life.compiled[case.name].plan
            same = (json.dumps(fns["plan_to_dict"](best["plan"]), sort_keys=True)
                    == json.dumps(fns["plan_to_dict"](direct), sort_keys=True))
            life.op(same, f"{case.name}: staged plan differs from Framework.compile")
            report = best["report"]
            totals["core.splitting.ops_after"] += len(best["graph"].ops)
            totals["core.splitting.rounds"] += report.rounds if report else 0
            totals["core.splitting.split_ops"] += len(report.split_ops) if report else 0
            totals["core.columnar.n_data"] += best["n_data"]
            totals["core.columnar.steps"] += len(best["plan"].steps)
            totals["core.columnar.evictions"] += sum(
                1 for note in best["plan"].notes if note.startswith("evicted"))
            totals["core.framework.candidates"] += best["candidates"]
        for stage in stage_names:
            totals[f"{stage}.s"] = sum(rec.durations(stage))
        direct_total = sum(median(raw(life.cold_seconds[c.name])) for c in singles)
        totals["core.framework.other.s"] = direct_total - sum(
            totals[f"{s}.s"] for s in stage_names)
        out.update(totals)
    else:
        out.update(dict.fromkeys(staged_keys, ABSENT))

    main = wl.compile[0]
    compiled = life.compiled[main.name]
    out["core.compile.ops_per_s"] = (
        len(compiled.graph.ops) / median(raw(life.cold_seconds[main.name])))
    out["core.compile.scaling_exponent"] = ABSENT
    if wl.scaling is not None:
        small, big = wl.scaling
        ops = math.log(len(life.compiled[big].graph.ops)
                       / len(life.compiled[small].graph.ops))
        out["core.compile.scaling_exponent"] = math.log(
            median(raw(life.cold_seconds[big]))
            / median(raw(life.cold_seconds[small]))
        ) / ops

    graph = life.graphs[main.name]
    options = main.options or CompileOptions()
    if fns["plan_key"] is not None:
        out["core.plancache.plan_key.us"] = per_call_us(
            lambda: fns["plan_key"](graph, main.device, options), 20)
        key = fns["plan_key"](graph, main.device, options)
        out["core.plancache.hit.us"] = per_call_us(
            lambda: life.warm_cache.get(key), 500)
        life.op(life.warm_cache.get(key) is not None, "plan_key misses the warm cache")
    else:
        out["core.plancache.plan_key.us"] = out["core.plancache.hit.us"] = ABSENT

    for name in ("graph_to_dict", "plan_to_dict"):
        if fns[name] is None:
            out[f"core.serialize.{name}.s"] = ABSENT
            continue
        attr = "graph" if name == "graph_to_dict" else "plan"
        out[f"core.serialize.{name}.s"] = sum(
            timed(lambda c=c: fns[name](getattr(life.compiled[c.name], attr)))[0]
            for c in singles)

    edits = life.delta_edits
    out["core.incremental.fragments_total"] = mean([e[2] for e in edits])
    out["core.incremental.fragments_reused"] = mean([e[3] for e in edits])
    out["core.incremental.cold.s"] = life.forest_cold_seconds
    out["templates.build.s"] = life.build_seconds
    out["pb.solve.s"] = sum(row[0] for row in life.pb_rows)
    out["pb.vars"] = float(sum(row[1].num_vars for row in life.pb_rows))
    out["pb.conflicts"] = rec.counts.get("pb.conflicts", ABSENT)
    return out


@contextlib.contextmanager
def pb_conflicts(rec: Recorder) -> Iterator[None]:
    """Count CDCL conflicts at the solver boundary while the PB phase
    runs (each ``Solver`` keeps a running total)."""
    seen: dict[int, int] = {}

    def after(rec: Recorder, args: tuple, _result: Any) -> None:
        solver = args[0]
        total = getattr(solver, "conflicts", 0)
        rec.count("pb.conflicts", total - seen.get(id(solver), 0))
        seen[id(solver)] = total

    with wrapped(rec, "repro.pb.solver:Solver.solve", "pb.solve", after):
        yield


# ---------------------------------------------------------------------------
# Runtime, gpusim and ops layers
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def ops_timed(rec: Recorder) -> Iterator[None]:
    """Span around every operator kernel (``OpImpl.execute``)."""
    known, get_impl = resolve("repro.ops:known_kinds"), resolve("repro.ops:get_impl")
    impls = [get_impl(kind) for kind in known()] if known and get_impl else []
    for impl in impls:
        original = impl.execute

        def execute(op: Any, inputs: Any, _original: Any = original) -> Any:
            with rec.span("ops.kernel"):
                return _original(op, inputs)

        impl.execute = execute  # instance attribute shadows the method
    try:
        yield
    finally:
        for impl in impls:
            del impl.execute


def _op_probe(kind: str, shapes: list[tuple[int, int]], **params: Any) -> float:
    """One fixed shape per operator kind, through the public registry."""
    get_impl = resolve("repro.ops:get_impl")
    if get_impl is None:
        return ABSENT
    try:
        impl = get_impl(kind)
    except KeyError:
        return ABSENT
    rng = np.random.default_rng(0)
    graph = OperatorGraph(f"probe-{kind}")
    names = []
    for i, shape in enumerate(shapes):
        graph.add_data(f"in{i}", shape, is_input=True)
        names.append(f"in{i}")
    out_shape = impl.out_shapes(shapes, params)[0]
    graph.add_data("out", out_shape, is_output=True)
    graph.add_operator("probe", kind, names, ["out"], **params)
    arrays = [rng.random(shape, dtype=np.float32) for shape in shapes]
    op = graph.ops["probe"]
    return per_call_us(lambda: impl.execute(op, arrays), 5)


def runtime_layers(life: Lifecycle, rec: Recorder) -> dict[str, float]:
    out: dict[str, float] = {}
    wl = life.wl
    numeric = {c.name: c for c in wl.numeric}
    singles = {c.name: c for c in wl.numeric + wl.analytic if c.device is not None}
    small = {n: c for n, c in singles.items() if c.events}

    def steps(names: Any) -> int:
        return sum(len(life.compiled[n].plan.steps) for n in names)

    def per_step(fn_name: str, cases: dict, call: Callable[[Any, Any, Any], Any],
                 reps: int = 1) -> float:
        fn = resolve(fn_name)
        if fn is None or not cases:
            return ABSENT
        seconds = 0.0
        for name, case in cases.items():
            seconds += median(
                timed(lambda: call(fn, case, life.compiled[name]))[0]
                for _ in range(reps))
        return seconds / steps(cases) * 1e6

    sim_runtime = resolve("repro.gpusim:SimRuntime")
    with ops_timed(rec):
        with rec.span("execute_probe"):
            out["runtime.executor.execute.us_per_step"] = per_step(
                "repro.runtime:execute_plan", numeric,
                lambda fn, c, k: fn(k.plan, k.graph, sim_runtime(c.device, c.host),
                                    life.inputs[c.name]))
    probe_seconds = sum(rec.durations("execute_probe"))
    out["ops.share_of_execute"] = (
        sum(rec.durations("ops.kernel")) / probe_seconds if probe_seconds else ABSENT)
    out["runtime.executor.simulate.us_per_step"] = per_step(
        "repro.runtime:simulate_plan", singles,
        lambda fn, c, k: fn(k.plan, k.graph, c.device, c.host), reps=3)
    out["runtime.events.execute.us_per_step"] = per_step(
        "repro.runtime:execute_plan_events",
        {n: c for n, c in numeric.items() if c.events},
        lambda fn, c, k: fn(k.plan, k.graph, c.device, life.inputs[c.name], c.host))
    out["runtime.overlap.simulate.us_per_step"] = per_step(
        "repro.runtime:simulate_plan_overlap", small,
        lambda fn, c, k: fn(k.plan, k.graph, c.device, c.host))
    lines: list[Any] = []
    out["runtime.events.simulate.us_per_step"] = per_step(
        "repro.runtime:simulate_plan_events", small,
        lambda fn, c, k: lines.append(fn(k.plan, k.graph, c.device, c.host)))
    out["runtime.events.sim_s"] = (
        geomean([t.total_time for t in lines]) if lines else ABSENT)
    out["runtime.events.hidden_share"] = (
        mean([t.hidden_transfer_fraction for t in lines]) if lines else ABSENT)

    first = wl.numeric[0]
    compile_multi = resolve("repro.multigpu:compile_multi")
    simulate_multi = resolve("repro.multigpu:simulate_multi_plan")
    group_of = resolve("repro.gpusim:homogeneous_group")
    if compile_multi and simulate_multi and group_of:
        group = group_of(first.device, 2)
        seconds, multi = timed(lambda: compile_multi(
            life.graphs[first.name], group, host=first.host,
            options=first.options, plan_cache=False))
        out["multigpu.framework.compile.s"] = seconds
        out["multigpu.runtime.simulate.us_per_step"] = median(
            timed(lambda: simulate_multi(multi.plan, multi.graph, group, first.host))[0]
            for _ in range(3)) / len(multi.plan.steps) * 1e6
    else:
        out["multigpu.framework.compile.s"] = ABSENT
        out["multigpu.runtime.simulate.us_per_step"] = ABSENT

    reference = resolve("repro.runtime:reference_execute")
    out["runtime.reference.s"] = ABSENT if reference is None else sum(
        timed(lambda n=n: reference(life.graphs[n], life.inputs[n]))[0]
        for n in numeric)

    results = [life.numeric_results[n] for n in numeric]
    counters = [r.metrics.get("counters", {}) for r in results]
    gauges = [r.metrics.get("gauges", {}) for r in results]
    out["gpusim.h2d_floats"] = float(sum(r.h2d_floats for r in results))
    out["gpusim.d2h_floats"] = float(sum(r.d2h_floats for r in results))
    out["gpusim.launches"] = float(sum(c.get("gpu.kernel_launches", 0) for c in counters))
    out["gpusim.allocator.peak_floats"] = max(
        g.get("alloc.bytes_in_use", {}).get("peak", 0) for g in gauges) / 4.0
    out["gpusim.allocator.compactions"] = float(
        sum(c.get("gpu.compactions", 0) for c in counters))
    out["gpusim.thrashed"] = float(sum(bool(r.thrashed) for r in results))

    side = (256, 256)
    out["ops.conv2d.us_per_call"] = _op_probe("conv2d", [side, (8, 8)], mode="same")
    out["ops.remap.us_per_call"] = _op_probe("remap", [side])
    out["ops.max.us_per_call"] = _op_probe("max", [side, side])
    out["ops.tanh.us_per_call"] = _op_probe("tanh", [side])
    out["ops.subsample.us_per_call"] = _op_probe("subsample", [side], factor=2)
    out["ops.add.us_per_call"] = _op_probe("add", [side, side])
    return out


# ---------------------------------------------------------------------------
# Service, shard, ipc and obs layers
# ---------------------------------------------------------------------------
def request_budget(rec: Recorder, sent: list[Any]) -> dict[str, float]:
    """Per-request stage means (us) of the traced closed-loop requests.

    key + submit + queue_wait + execute + reply add up to the mean
    latency: ``submit`` is the time blocked in ``submit()`` without the
    key computed inside it, ``execute`` the shard-reported service time
    without the key computed on a worker thread of this process, and
    ``reply`` is what remains of the end-to-end time.
    """
    spans = rec.spans
    n = sum(1 for s in spans if s.name == "request")
    submit = sum(s.duration for s in spans if s.name == "submit")
    key_in_submit = sum(s.duration for s in spans
                        if s.name == "key" and s.parent is not None)
    key_in_worker = sum(s.duration for s in spans
                        if s.name == "key" and s.parent is None)
    latency = sum(s.duration for s in spans if s.name == "request")
    answered = [s.response for s in sent if s.response is not None]
    wait = sum(r.wait_seconds for r in answered)
    service = sum(r.service_seconds for r in answered)
    self_seconds = rec.self_times()
    us = 1e6 / max(n, 1)
    return {
        "requests": float(n),
        "latency": latency * us,
        "key": (key_in_submit + key_in_worker) * us,
        "submit": (submit - key_in_submit) * us,
        "queue_wait": wait * us,
        "execute": (service - key_in_worker) * us,
        "reply": (latency - submit - wait - service) * us,
        "submit_self": self_seconds.get("submit", 0.0) * us,
        "route": mean(rec.durations("route") or [0.0]) * 1e6,
        "encode": mean(rec.durations("encode") or [0.0]) * 1e6,
        "frame_bytes": rec.counts["frame_bytes"] / max(rec.counts["frames"], 1),
    }


def fleet_probe(seed: int) -> tuple[float, dict[str, float]]:
    """A two-shard fleet on the warm mix, for workloads whose own
    service is in process: (start seconds, per-request stage means)."""
    spec = Serve(fleet=True)
    start_seconds, svc = timed(lambda: start_service(spec))
    try:
        mix = Mix(spec, seed)
        closed_loop(svc, mix.take(100))
        rec = Recorder()
        batch = mix.take(300)
        with serve_instrumentation(rec):
            closed_loop(svc, batch, rec)
    finally:
        svc.close()
    return start_seconds, request_budget(rec, batch)


def service_layers(life: Lifecycle, rec: Recorder) -> dict[str, float]:
    out: dict[str, float] = {}
    budget = request_budget(rec, life.traced_sent)
    for stage in ("key", "submit", "queue_wait", "execute", "reply"):
        out[f"service.{stage}.us"] = budget[stage]
    life.request_budget = budget
    snap = life.snapshot
    counters, cache = snap["counters"], snap["plan_cache"]
    submitted = max(counters.get("service.submitted", 0), 1)
    out["service.dedupe_share"] = counters.get("service.dedupe_hits", 0) / submitted
    out["service.batch_join_share"] = counters.get("service.batch_joins", 0) / submitted
    out["service.compiles"] = float(counters.get("service.compiles", 0))
    out["service.retries"] = float(counters.get("service.retries", 0))
    out["service.queue_full"] = float(counters.get("service.rejected", 0))
    limit = life.wl.serve.limit_ms / 1e3
    opened = [s for _, batch in life.open_slices for s in batch]
    out["service.p95.ms"] = median(
        percentile([s.latency for s in batch], 95)
        for _, batch in life.open_slices) * 1e3
    out["service.within_limit_share"] = mean([
        float(s.response is not None and s.response.ok and s.latency <= limit)
        for s in opened])
    lookups = cache.get("hits", 0) + cache.get("disk_hits", 0) + cache.get("misses", 0)
    out["service.plan_cache.hit_share"] = (
        (cache.get("hits", 0) + cache.get("disk_hits", 0)) / max(lookups, 1))
    out["service.plan_cache.evictions"] = float(
        max(0, cache.get("misses", 0) - cache.get("entries", 0)))

    if life.wl.serve.fleet:
        start_seconds, fleet = life.service_start_seconds, budget
    else:
        start_seconds, fleet = fleet_probe(life.wl.seed)
    out["service.shard.route.us"] = fleet["route"]
    out["service.shard.submit.us"] = fleet["submit_self"]
    out["service.shard.start.s"] = start_seconds
    out["service.ipc.encode.us"] = fleet["encode"]
    out["service.ipc.frame_bytes"] = fleet["frame_bytes"]

    events = snap["events"]
    out["obs.live.events_per_request"] = events["emitted"] / submitted
    out["obs.live.dropped"] = float(events["dropped"])
    out["obs.live.snapshot.us"] = life.snapshot_us
    out["obs.live.prom_text.us"] = life.prom_text_us

    untraced = raw(life.closed_rps)
    out["bench.trace.overhead_share"] = (
        1.0 - median(raw(life.traced_rps)) / median(untraced))
    out["bench.generator.late_ms"] = percentile(
        [s.late for s in opened], 95) * 1e3
    out["bench.block_spread"] = (max(untraced) - min(untraced)) / median(untraced)
    for kind in ("py", "np"):
        out[f"bench.reference.{kind}.ms"] = median(
            b[kind] for b in life.boundaries) * 1e3
    return out


def collect(life: Lifecycle, rec: Recorder) -> dict[str, float]:
    """Every per-layer metric of one traced run (after ``life.run()``)."""
    try:
        out = compile_layers(life, rec)
        settle_heap()
        out.update(runtime_layers(life, rec))
        out.update(service_layers(life, rec))
    finally:
        gc.unfreeze()
    return out
