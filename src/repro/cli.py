"""Command-line interface.

The adoption surface for people who do not want to write Python: build
one of the paper's templates, compile it for a GPU preset, inspect the
plan, run it on the simulated device, or emit the generated program.
The commands are argument parsing over :mod:`repro.api` and the
renderers in :mod:`repro.obs`.

    repro info    --template edge --size 4096x4096
    repro compile --template edge --size 10000x10000 --device geforce_8800_gtx
    repro compile --template edge --size 2048x2048 --num-devices 4
    repro run     --template small-cnn --size 640x480 --verify
    repro run     --template edge --size 1024x1024 --num-devices 2 --verify
    repro run     --template edge --size 4096x4096 --trace-out trace.json
    repro explain --template edge --size 2048x2048
    repro report  --template edge --size 512x512 --num-devices 2
    repro bench-compare benchmarks/baselines benchmarks/results
    repro codegen --template edge --size 1024x1024 --lang cuda -o out.cu
    repro submit  --template edge --size 512x512 --repeat 8 --workers 4
    repro serve   jobs.json --workers 8 --fault-rate 0.2
    repro serve   jobs.json --shards 4 --flight-dir /var/tmp/flight --alerts
    repro top     127.0.0.1:8321
    repro postmortem /var/tmp/flight/proc-0 --format md

``compile``, ``run``, ``explain`` and ``report`` take ``--num-devices N``
(with ``--transfer-mode`` and ``--shared-bus``): the same command then
compiles for a group of N GPUs.  ``compile --save``, ``--timeline`` and
``--incremental`` need one device.  ``run --verify`` requires every
output to be bit-identical to the host reference.

Exit codes: 0 success; 1 application failure (verify mismatch, benchmark
regression, failed/expired service request); 2 user error (bad flags,
malformed input files, infeasible configuration); 70 internal error.
Errors go to stderr; stdout carries only the requested output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Mapping

import numpy as np

import repro
from repro.analysis import memory_profile, render_scaling, scaling_report
from repro.analysis.timeline import render_timeline
from repro.codegen import generate_cuda, generate_python
from repro.core import EVICTION_POLICIES, SCHEDULERS, CompileOptions, Framework, PlanError
from repro.core.serialize import save_plan
from repro.obs import (
    analyze_run,
    explain_to_dicts,
    render_explain,
    render_postmortem,
    render_report,
    render_top,
    write_chrome_trace,
)
from repro.obs.bench import (
    DEFAULT_THRESHOLD,
    compare_dirs,
    compare_results,
    load_bench,
    render_comparisons,
)
from repro.gpusim import (
    FLOAT_BYTES,
    MB,
    PRESETS,
    XEON_WORKSTATION,
    device_by_name,
    homogeneous_group,
)
from repro.gpusim.faults import FaultSpec
from repro.runtime import plan_streams, reference_execute, simulate_plan
from repro.service import (
    ExecutionService,
    RetryPolicy,
    ServiceConfig,
    ServiceError,
    ServiceRequest,
    ShardedExecutionService,
)
from repro.templates import (
    LARGE_CNN,
    SMALL_CNN,
    cnn_graph,
    cnn_inputs,
    dog_pyramid_graph,
    dog_pyramid_inputs,
    find_edges_graph,
    find_edges_inputs,
)


EXIT_OK = 0
EXIT_FAILURE = 1  # the command ran, but the answer is "no" (verify,
#                   bench regression, failed/expired service requests)
EXIT_USAGE = 2  # user error: bad flags, malformed files, infeasible config
EXIT_INTERNAL = 70  # os.EX_SOFTWARE: a bug in repro, please report


class CLIError(Exception):
    """A user-facing error: reported to stderr, exit code 2."""


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(h), int(w)
    except Exception:
        raise argparse.ArgumentTypeError(
            f"size must look like 1024x768 (width x height), got {text!r}"
        ) from None


TEMPLATES = ("edge", "small-cnn", "large-cnn", "pyramid")


def _build(spec: Mapping) -> tuple:
    """``(graph, inputs factory)`` for a template spec: a command's flags
    (``vars(args)``) or one entry of a ``serve`` jobs file."""
    size = spec.get("size", (1024, 1024))
    if isinstance(size, str):
        size = _parse_size(size)
    h, w = size
    template = spec.get("template", "edge")
    kernel = int(spec.get("kernel", 16))
    orientations = int(spec.get("orientations", 4))
    seed = int(spec.get("seed", 0))
    if template == "edge":
        graph = find_edges_graph(h, w, kernel, orientations)
        inputs: Callable = lambda: find_edges_inputs(
            h, w, kernel, orientations, seed=seed
        )
    elif template == "small-cnn":
        graph = cnn_graph(SMALL_CNN, h, w)
        inputs = lambda: cnn_inputs(SMALL_CNN, h, w, seed=seed)
    elif template == "large-cnn":
        graph = cnn_graph(LARGE_CNN, h, w)
        inputs = lambda: cnn_inputs(LARGE_CNN, h, w, seed=seed)
    elif template == "pyramid":
        graph = dog_pyramid_graph(h, w, octaves=int(spec.get("octaves", 3)))
        inputs = lambda: dog_pyramid_inputs(h, w, seed=seed)
    else:
        raise CLIError(
            f"unknown template {template!r} (choose from {', '.join(TEMPLATES)})"
        )
    return graph, inputs


def _options(spec: Mapping) -> CompileOptions:
    headroom = spec.get("headroom", "auto")
    return CompileOptions(
        scheduler=spec.get("scheduler", "dfs"),
        eviction_policy=spec.get("eviction", "belady"),
        split_headroom="auto" if headroom == "auto" else float(headroom),
    )


def _multi(args) -> bool:
    return getattr(args, "num_devices", 1) > 1


def _target(args) -> dict:
    """``repro.compile``'s keywords for the flags: ``device=`` one GPU,
    or ``group=`` (and its transfer mode) for ``--num-devices N``."""
    target = dict(
        host=XEON_WORKSTATION,
        options=_options(vars(args)),
        plan_cache=not getattr(args, "no_plan_cache", False),
    )
    device = device_by_name(args.device)
    if not _multi(args):
        return dict(target, device=device)
    group = homogeneous_group(
        device, args.num_devices, shared_bus=args.shared_bus
    )
    return dict(target, group=group, transfer_mode=args.transfer_mode)


def _device_label(args) -> str:
    name = device_by_name(args.device).name
    return f"{args.num_devices}x {name}" if _multi(args) else name


def cmd_info(args) -> int:
    graph, _ = _build(vars(args))
    prof = memory_profile(graph)
    print(f"template       : {graph.name}")
    print(f"operators      : {len(graph.ops)}")
    print(f"data structures: {len(graph.data)}")
    print(f"footprint      : {prof.total_floats * FLOAT_BYTES // MB} MB "
          f"({prof.total_floats:,} floats)")
    print(f"largest op     : {prof.max_op_footprint * FLOAT_BYTES // MB} MB")
    print(f"I/O lower bound: {prof.io_floats:,} floats")
    for name, fp in sorted(
        prof.op_classes().items(), key=lambda kv: -kv[1]
    )[:6]:
        print(f"  op class {name:12s} {fp * FLOAT_BYTES // MB:6d} MB")
    return 0


def _write_trace(args, compiled, **timeline) -> None:
    """``--trace-out``: the compile spans plus the command's device
    timeline (``profile``, ``profiles`` or ``simulated_events``)."""
    write_chrome_trace(
        args.trace_out,
        spans=compiled.spans,
        metadata={
            "template": compiled.graph.name,
            "device": _device_label(args),
        },
        **timeline,
    )
    # with --json, stdout must stay a single parseable document
    print(f"chrome trace written to {args.trace_out}",
          file=sys.stderr if args.json else sys.stdout)


def _print_compile_stats(compiled) -> None:
    """Phase wall-time table + plan-cache counters (``--stats``)."""
    phases = [
        "splitting", "lowering", "operator_scheduling",
        "transfer_scheduling", "pb_or_heuristic", "validate", "partition",
        "fragment_compile", "stitch",
    ]
    by_name: dict[str, float] = {}
    for sp in compiled.spans:
        if sp.name in phases:
            by_name[sp.name] = by_name.get(sp.name, 0.0) + sp.duration
    total = max((sp.end for sp in compiled.spans), default=0.0)
    print("compile stats:")
    for name in phases:
        if name in by_name:
            print(f"  {name:20s}: {by_name[name] * 1e3:9.2f} ms")
    print(f"  {'total':20s}: {total * 1e3:9.2f} ms")
    # one and N devices alike mark the lookup with a trace event
    events = [s for s in compiled.spans if s.name == "plan_cache"]
    state = "off"
    if events:
        state = "hit" if events[0].attrs.get("hit") else "miss"
    print(f"  {'plan cache':20s}: {state}")


#: ``compile`` flags that need one device, and why
_SINGLE_DEVICE_FLAGS = {
    "save": "a saved plan holds one device's plan",
    "timeline": "the timeline tracks one device's residency",
    "incremental": "fragment-cached compilation plans one device",
}


def cmd_compile(args) -> int:
    multi = _multi(args)
    for flag, reason in _SINGLE_DEVICE_FLAGS.items():
        if multi and getattr(args, flag):
            raise CLIError(
                f"--{flag} needs one device ({reason}); "
                f"drop it or --num-devices {args.num_devices}"
            )
    graph, _ = _build(vars(args))
    incremental = None
    if args.incremental:
        incremental = Framework(**_target(args)).compile_incremental(graph)
        compiled = incremental.compiled
    else:
        compiled = repro.compile(graph, **_target(args))
    sim = repro.simulate(compiled)
    scaling = None
    if multi:
        scaling = scaling_report(
            graph,
            device_by_name(args.device),
            device_counts=(1, args.num_devices),
            host=XEON_WORKSTATION,
            options=_options(vars(args)),
            shared_bus=args.shared_bus,
            transfer_mode=args.transfer_mode,
        )
    if args.json:
        doc = {
            "summary": compiled.summary(),
            "simulated_seconds": sim.total_time,
        }
        if multi:
            doc.update(
                device_seconds=sim.device_times,
                peer_floats=sim.peer_floats,
                speedup_vs_1gpu=scaling.rows[-1].speedup,
            )
        else:
            doc.update(metrics=compiled.metrics, breakdown=sim.breakdown())
        if incremental is not None:
            doc["fragments"] = {
                "total": incremental.total_fragments,
                "reused": incremental.reused_fragments,
                "reuse_ratio": incremental.reuse_ratio,
            }
        print(json.dumps(doc, indent=1, default=str))
    else:
        for key, value in compiled.summary().items():
            print(f"{key:20s}: {value}")
        if incremental is not None:
            print(f"{'fragments':20s}: {incremental.reused_fragments}"
                  f"/{incremental.total_fragments} reused "
                  f"({100 * incremental.reuse_ratio:.0f}%)")
        if multi:
            print(f"{'simulated time':20s}: {sim.total_time:.3f} s")
        else:
            print(f"{'simulated time':20s}: {sim.total_time:.3f} s "
                  f"({100 * sim.breakdown()['transfer']:.0f}% transfer)")
            try:
                bsim = repro.simulate(
                    Framework(compiled.device, host=compiled.host)
                    .compile_baseline(graph)
                )
                print(f"{'baseline time':20s}: {bsim.total_time:.3f} s "
                      f"({bsim.total_time / sim.total_time:.1f}x slower)")
            except PlanError:
                print(f"{'baseline time':20s}: N/A "
                      f"(operator exceeds device memory)")
        if args.stats:
            print()
            _print_compile_stats(compiled)
        if multi:
            print()
            print(render_scaling(scaling))
    if args.timeline:
        print()
        print(render_timeline(compiled.plan, compiled.graph))
    if args.trace_out:
        # the per-step simulated track is a one-device walk
        events = None if multi else simulate_plan(
            compiled.plan, compiled.graph, compiled.device, compiled.host,
            record_events=True,
        ).events
        _write_trace(args, compiled, simulated_events=events)
    if args.save:
        save_plan(compiled, args.save)
        print(f"plan written to {args.save}",
              file=sys.stderr if args.json else sys.stdout)
    return 0


def _verify(outputs, reference) -> int:
    """``run --verify``: every output bit-identical to the host reference."""
    for name in reference:
        if not np.array_equal(outputs[name], reference[name]):
            print(f"VERIFY FAILED for {name}")
            return EXIT_FAILURE
    print(f"verified {len(reference)} outputs against host reference: OK")
    return EXIT_OK


def cmd_run(args) -> int:
    multi = _multi(args)
    graph, make_inputs = _build(vars(args))
    compiled = repro.compile(graph, **_target(args))
    inputs = make_inputs()
    result = repro.execute(compiled, inputs)
    if args.json:
        doc = {
            "summary": compiled.summary(),
            "elapsed_seconds": result.elapsed,
            "transfer_floats": result.transfer_floats,
            "h2d_floats": result.h2d_floats,
            "d2h_floats": result.d2h_floats,
            "thrashed": result.thrashed,
            "outputs": {
                name: {"shape": list(arr.shape),
                       "mean": float(np.mean(arr))}
                for name, arr in sorted(result.outputs.items())
            },
        }
        if multi:
            doc.update(device_seconds=result.device_clocks,
                       peer_floats=result.peer_floats)
        else:
            doc["metrics"] = {"compile": compiled.metrics,
                              "execution": result.metrics}
        print(json.dumps(doc, indent=1, default=str))
    else:
        where = f" on {result.num_devices} devices" if multi else ""
        print(f"executed {len(compiled.plan.launches())} offload units"
              f"{where} in {result.elapsed * 1e3:.2f} simulated ms")
        if multi:
            print(f"transferred {result.transfer_floats:,} floats "
                  f"host<->device, {result.peer_floats:,} floats "
                  f"device<->device")
            for dev, clock in enumerate(result.device_clocks):
                print(f"  gpu{dev}: finished at {clock * 1e3:.2f} ms")
        else:
            print(f"transferred {result.transfer_floats:,} floats "
                  f"(h2d {result.h2d_floats:,}, d2h {result.d2h_floats:,})")
        for name, arr in sorted(result.outputs.items()):
            print(f"  output {name}: shape {arr.shape}, "
                  f"mean {float(np.mean(arr)):.6f}")
    if args.trace_out:
        if multi:
            _write_trace(args, compiled, profiles=[
                (f"gpu{i}", prof) for i, prof in enumerate(result.profiles)
            ])
        else:
            _write_trace(args, compiled, profile=result.profile)
    if args.verify:
        return _verify(result.outputs, reference_execute(graph, inputs))
    return 0


def cmd_explain(args) -> int:
    graph, _ = _build(vars(args))
    compiled = repro.compile(graph, **_target(args))
    streams = plan_streams(compiled.plan)
    if args.json:
        print(json.dumps({
            "template": compiled.graph.name,
            "device": _device_label(args),
            "plan_label": compiled.plan.label,
            "steps": explain_to_dicts(compiled.plan, streams),
        }, indent=1))
        return 0
    print(f"plan for {compiled.graph.name!r} on {_device_label(args)} "
          f"({compiled.plan.label}):")
    print(render_explain(compiled.plan, streams))
    return 0


def cmd_report(args) -> int:
    graph, make_inputs = _build(vars(args))
    compiled = repro.compile(graph, **_target(args))
    result = repro.execute(compiled, make_inputs())
    device_label = _device_label(args)
    analysis = analyze_run(
        result.profiles if _multi(args) else [result.profile],
        plan=compiled.plan,
        graph=compiled.graph,
        label=f"{graph.name} on {device_label}",
        metadata={
            "template": graph.name,
            "device": device_label,
            "plan": compiled.plan.label,
            "num_devices": args.num_devices,
            "elapsed_seconds": result.elapsed,
        },
    )
    if args.format == "json":
        text = json.dumps(analysis.to_dict(), indent=1)
    else:
        text = render_report(analysis, fmt=args.format)
    _emit(text, args.output)
    return 0


def cmd_bench_compare(args) -> int:
    if os.path.isdir(args.baseline) and os.path.isdir(args.candidate):
        comparisons, base_only, cand_only = compare_dirs(
            args.baseline, args.candidate, threshold=args.threshold
        )
    else:
        comparisons = [
            compare_results(
                load_bench(args.baseline),
                load_bench(args.candidate),
                threshold=args.threshold,
            )
        ]
        base_only = cand_only = []
    regressed = any(c.regressed for c in comparisons)
    if args.json:
        print(json.dumps({
            "regressed": regressed,
            "comparisons": [c.to_dict() for c in comparisons],
            "baseline_only": base_only,
            "candidate_only": cand_only,
        }, indent=1))
    else:
        print(render_comparisons(comparisons, base_only, cand_only))
    return 1 if regressed else 0


def _emit(text: str, output: str) -> None:
    if output == "-":
        print(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)
        print(f"{len(text.splitlines())} lines written to {output}")


def cmd_dot(args) -> int:
    from repro.analysis import graph_to_dot

    graph, _ = _build(vars(args))
    _emit(graph_to_dot(graph), args.output)
    return 0


def cmd_opb(args) -> int:
    from repro.core.pbopt import export_opb

    graph, _ = _build(vars(args))
    device = device_by_name(args.device)
    _emit(export_opb(graph, device.usable_memory_floats), args.output)
    return 0


def cmd_codegen(args) -> int:
    graph, _ = _build(vars(args))
    compiled = repro.compile(graph, **_target(args))
    generate = generate_python if args.lang == "python" else generate_cuda
    _emit(generate(compiled.plan, compiled.graph, compiled.device),
          args.output)
    return 0


def _service_config(args) -> ServiceConfig:
    fault_spec = None
    if args.fault_rate > 0.0 or args.alloc_fault_rate > 0.0:
        fault_spec = FaultSpec(
            transfer_failure_rate=args.fault_rate,
            alloc_failure_rate=args.alloc_fault_rate,
            seed=args.fault_seed,
        )
    alert_rules = ()
    if args.alerts:
        from repro.obs.live import default_alert_rules

        alert_rules = default_alert_rules()
    try:
        return ServiceConfig(
            workers=args.workers,
            max_queue_depth=args.queue_depth,
            retry=RetryPolicy(max_attempts=args.max_attempts),
            fault_spec=fault_spec,
            batch_window=args.batch_window / 1e3,
            shared_cache_dir=args.shared_cache,
            flight_dir=args.flight_dir,
            alert_rules=alert_rules,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None


_JOB_KEYS = frozenset({
    "template", "size", "kernel", "orientations", "octaves", "seed",
    "device", "mode", "planner", "deadline", "label", "count",
    "scheduler", "eviction", "headroom",
})


def _request(spec: Mapping, label: str) -> ServiceRequest:
    """One service request from a spec: ``submit``'s flags
    (``vars(args)``) or a ``serve`` job, whose keys are the same names."""
    graph, make_inputs = _build(spec)
    mode = spec.get("mode", "compile")
    return ServiceRequest(
        template=graph,
        device=device_by_name(spec["device"]),
        host=XEON_WORKSTATION,
        options=_options(spec),
        mode=mode,
        inputs=make_inputs() if mode == "execute" else None,
        planner=spec.get("planner", "heuristic"),
        deadline=spec.get("deadline"),
        label=str(spec.get("label", label)),
    )


def _run_service(args, requests: list[ServiceRequest]) -> int:
    """Drive one batch through the serving tier the flags select
    (in-process, or the multi-process fleet with ``--shards N``)."""
    config = _service_config(args)
    with (
        ShardedExecutionService(config, shards=args.shards)
        if args.shards > 0 else ExecutionService(config)
    ) as svc:
        if args.status_port is not None:
            server = svc.serve_status(
                host=args.status_host, port=args.status_port
            )
            print(
                f"status endpoint: {server.url} "
                f"(/metrics /slo /requests /healthz)",
                file=sys.stderr,
            )
        tickets = []
        rejected = []
        for req in requests:
            try:
                tickets.append(svc.submit(req))
            except ServiceError as exc:
                rejected.append((req, str(exc)))
        responses = [t.result(timeout=args.wait) for t in tickets]
        snapshot = svc.metrics_snapshot()
    counters = snapshot.get("counters", {})
    if args.json:
        print(json.dumps({
            "responses": [r.to_dict() for r in responses],
            "rejected": [
                {"label": req.label, "error": err} for req, err in rejected
            ],
            "metrics": snapshot,
        }, indent=1))
    else:
        for resp in responses:
            flags = "".join((
                "D" if resp.deduped else "-",
                "G" if resp.degraded else "-",
                "B" if resp.batched else "-",
            ))
            detail = resp.planner_used or (resp.error or "")[:48]
            print(f"  {resp.label or resp.request_id:>10} "
                  f"{resp.status.value:9s} {flags} "
                  f"attempts={resp.attempts} retries={resp.retries} "
                  f"wait={resp.wait_seconds * 1e3:7.2f}ms "
                  f"svc={resp.service_seconds * 1e3:7.2f}ms  {detail}")
        for req, err in rejected:
            print(f"  {req.label or '?':>10} rejected    -- {err}")
        print(f"requests: {len(responses)} finished, {len(rejected)} rejected "
              f"at admission")
        print(f"compiles: {counters.get('service.compiles', 0)}, "
              f"dedupe hits: {counters.get('service.dedupe_hits', 0)} "
              f"(single-flight {counters.get('service.singleflight_joins', 0)}"
              f" + plan-cache {counters.get('service.plan_cache_hits', 0)}), "
              f"retries: {counters.get('service.retries', 0)}, "
              f"degraded: {counters.get('service.degraded', 0)}, "
              f"expired: {counters.get('service.expired', 0)}, "
              f"batches: {counters.get('service.batches', 0)}")
    ok = all(r.ok for r in responses) and not rejected
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_submit(args) -> int:
    request = _request(vars(args), args.template)
    return _run_service(args, [request] * args.repeat)


def cmd_serve(args) -> int:
    try:
        if args.jobs == "-":
            specs = json.load(sys.stdin)
        else:
            with open(args.jobs) as fh:
                specs = json.load(fh)
    except FileNotFoundError:
        raise CLIError(f"jobs file not found: {args.jobs}") from None
    except json.JSONDecodeError as exc:
        raise CLIError(f"jobs file is not valid JSON: {exc}") from None
    if not isinstance(specs, list) or not specs:
        raise CLIError("jobs file must be a non-empty JSON array of objects")
    requests: list[ServiceRequest] = []
    for index, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise CLIError(f"job #{index}: expected an object, got {spec!r}")
        unknown = set(spec) - _JOB_KEYS
        if unknown:
            raise CLIError(
                f"job #{index}: unknown keys {sorted(unknown)} "
                f"(allowed: {sorted(_JOB_KEYS)})"
            )
        try:
            req = _request({"device": args.device, **spec}, f"job{index}")
            count = int(spec.get("count", 1))
        except (ValueError, KeyError, argparse.ArgumentTypeError) as exc:
            raise CLIError(f"job #{index}: {exc}") from None
        requests.extend([req] * max(count, 1))
    return _run_service(args, requests)


def _fetch_status(base: str, path: str, timeout: float):
    """GET ``base + path`` from a status endpoint; parsed JSON."""
    import urllib.request

    with urllib.request.urlopen(base + path, timeout=timeout) as resp:
        return json.load(resp)


def cmd_top(args) -> int:
    import urllib.error

    base = args.url.rstrip("/")
    if "://" not in base:
        base = f"http://{base}"
    try:
        snap = _fetch_status(base, "/slo", args.timeout)
    except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
        # A dead or unreachable endpoint is an operational failure, not
        # a usage error — and main() maps OSError onto exit code 2, so
        # it must be handled here to exit 1 as `top` documents.
        print(f"repro top: cannot reach {base}/slo: {exc}", file=sys.stderr)
        if os.environ.get("REPRO_DEBUG"):
            import traceback

            traceback.print_exc()
        return EXIT_FAILURE
    if args.json:
        print(json.dumps(snap, indent=1, sort_keys=True))
    else:
        print(render_top(snap, base))
    return EXIT_OK


def cmd_postmortem(args) -> int:
    from repro.obs.flight import (
        POSTMORTEM_BASENAME,
        harvest_postmortem,
        journal_dirs,
    )

    dirs = journal_dirs(args.journal)
    if not dirs:
        raise CLIError(
            f"no flight-recorder journal found at {args.journal} "
            f"(expected segment-*.flight files, or shard sub-directories "
            f"holding them)"
        )
    reports = []
    for directory in dirs:
        # The supervisor's harvested artifact (if any) knows how the
        # process actually exited; the journal alone cannot.
        shard = os.path.basename(os.path.normpath(directory))
        exit_code = args.exit_code
        artifact = os.path.join(directory, POSTMORTEM_BASENAME)
        if exit_code is None and os.path.exists(artifact):
            try:
                with open(artifact, encoding="utf-8") as fh:
                    harvested = json.load(fh)
                exit_code = harvested.get("exit_code")
                shard = harvested.get("shard") or shard
            except (OSError, json.JSONDecodeError):
                pass
        pm = harvest_postmortem(
            directory,
            shard=shard,
            exit_code=exit_code,
            window_seconds=args.window,
            timeline_limit=args.limit,
            write_artifact=False,
        )
        for warning in pm["warnings"]:
            print(f"repro postmortem: warning: {directory}: {warning}",
                  file=sys.stderr)
        reports.append(pm)
    if args.json:
        payload = reports[0] if len(reports) == 1 else reports
        text = json.dumps(payload, indent=1, sort_keys=True, default=str)
    else:
        text = "\n".join(render_postmortem(pm, fmt=args.format)
                         for pm in reports)
    _emit(text, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU template execution framework (IPDPS 2009 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--template", choices=TEMPLATES, default="edge")
        p.add_argument(
            "--size", type=_parse_size, default=(1024, 1024),
            help="input size as WIDTHxHEIGHT (default 1024x1024)",
        )
        p.add_argument("--kernel", type=int, default=16,
                       help="edge filter size (edge template)")
        p.add_argument("--orientations", type=int, default=4)
        p.add_argument("--octaves", type=int, default=3,
                       help="pyramid octaves (pyramid template)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--device", default="tesla_c870",
            help=f"GPU preset: {', '.join(sorted(PRESETS))}",
        )
        p.add_argument("--scheduler", default="dfs",
                       choices=[*SCHEDULERS, "pb"])
        p.add_argument("--eviction", default="belady",
                       choices=EVICTION_POLICIES)
        p.add_argument("--headroom", default="auto",
                       help="split headroom factor or 'auto'")

    def devices(p: argparse.ArgumentParser) -> None:
        common(p)
        p.add_argument("--num-devices", type=int, default=1,
                       help="simulated GPUs; >1 compiles for a device group")
        p.add_argument("--transfer-mode", choices=["peer", "staged"],
                       default="peer",
                       help="inter-device transfers: direct peer copies "
                            "or staged through host memory")
        p.add_argument("--shared-bus", action="store_true",
                       help="serialize all host<->device transfers over "
                            "one shared PCIe link")

    p = sub.add_parser("info", help="template statistics")
    common(p)
    p.set_defaults(func=cmd_info)

    def obs_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON output (incl. metrics)")
        p.add_argument("--trace-out", metavar="TRACE.json",
                       help="write a Chrome trace-event / Perfetto JSON file")

    p = sub.add_parser("compile", help="compile and inspect the plan")
    devices(p)
    obs_flags(p)
    p.add_argument("--timeline", action="store_true",
                   help="print the Figure-6-style plan timeline "
                        "(one device)")
    p.add_argument("--save", metavar="PLAN.json",
                   help="serialize the compiled plan (one device)")
    p.add_argument("--stats", action="store_true",
                   help="print per-phase compile timings and plan-cache "
                        "hit/miss counters")
    p.add_argument("--no-plan-cache", action="store_true",
                   help="bypass the content-addressed plan cache")
    p.add_argument("--incremental", action="store_true",
                   help="fragment-cached compilation: recompile only "
                        "template fragments whose fingerprint changed, "
                        "stitch the rest from the plan cache (one device)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="execute on the simulated device")
    devices(p)
    obs_flags(p)
    p.add_argument("--verify", action="store_true",
                   help="check results against the host reference")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "explain",
        help="per-step provenance: why each transfer/eviction is in the plan",
    )
    devices(p)
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON output")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "report",
        help="run and analyze: residency, idle gaps, transfer attribution",
    )
    devices(p)
    p.add_argument("--format", choices=["md", "html", "json"], default="md",
                   help="report format (default markdown)")
    p.add_argument("-o", "--output", default="-",
                   help="output file ('-' for stdout)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "bench-compare",
        help="regression gate: compare BENCH_*.json results (exit 1 on "
             "regression beyond threshold)",
    )
    p.add_argument("baseline",
                   help="baseline BENCH_*.json file or directory")
    p.add_argument("candidate",
                   help="candidate BENCH_*.json file or directory")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="relative regression threshold (default 0.10)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON output")
    p.set_defaults(func=cmd_bench_compare)

    p = sub.add_parser("dot", help="emit a Graphviz rendering of the template")
    common(p)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("opb", help="export the Figure-5 PB instance (OPB)")
    common(p)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_opb)

    p = sub.add_parser("codegen", help="emit the generated program")
    common(p)
    p.add_argument("--lang", choices=["python", "cuda"], default="python")
    p.add_argument("-o", "--output", default="-",
                   help="output file ('-' for stdout)")
    p.set_defaults(func=cmd_codegen)

    def service_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=4,
                       help="worker threads in the execution service")
        p.add_argument("--queue-depth", type=int, default=64,
                       help="admission-control queue bound")
        p.add_argument("--max-attempts", type=int, default=5,
                       help="attempts per request under transient faults")
        p.add_argument("--fault-rate", type=float, default=0.0,
                       help="injected transfer-fault site rate in [0,1]")
        p.add_argument("--alloc-fault-rate", type=float, default=0.0,
                       help="injected allocation-fault site rate in [0,1]")
        p.add_argument("--fault-seed", type=int, default=0,
                       help="seed for deterministic fault injection")
        p.add_argument("--wait", type=float, default=300.0,
                       help="seconds to wait for each result")
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON output (incl. metrics)")
        p.add_argument("--status-port", type=int, default=None,
                       metavar="PORT",
                       help="serve the live status endpoint (/metrics, "
                            "/slo, /requests, /healthz) on this port while "
                            "the batch runs (0 = ephemeral)")
        p.add_argument("--status-host", default="127.0.0.1",
                       help="bind address for --status-port")
        p.add_argument("--shards", type=int, default=0, metavar="N",
                       help="run the service's work on a pool of N "
                            "worker *processes*, routed by plan key over "
                            "a consistent-hash ring; admission, batching "
                            "and telemetry stay in this process (0 = no "
                            "pool)")
        p.add_argument("--batch-window", type=float, default=0.0,
                       metavar="MS",
                       help="coalesce compatible queued requests for up "
                            "to this many milliseconds into one batched "
                            "plan execution (0 = batching off)")
        p.add_argument("--shared-cache", default=None, metavar="DIR",
                       help="cross-process plan-cache directory (shards "
                            "share one automatically; set this to share "
                            "plans across separate repro invocations)")
        p.add_argument("--flight-dir", default=None, metavar="DIR",
                       help="journal every telemetry event to a crash-safe "
                            "on-disk flight recorder under DIR (one "
                            "sub-directory per process; read back with "
                            "'repro postmortem')")
        p.add_argument("--alerts", action="store_true",
                       help="evaluate the default alert rules (p99 "
                            "latency, SLO budget burn) as requests "
                            "complete; firing/resolved transitions are "
                            "published as alert.* events")

    p = sub.add_parser(
        "submit",
        help="submit one template request (optionally N copies) to a "
             "fresh execution service",
    )
    common(p)
    service_flags(p)
    p.add_argument("--mode", choices=["compile", "execute", "simulate"],
                   default="compile")
    p.add_argument("--planner", choices=["heuristic", "pb", "auto"],
                   default="heuristic")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request deadline in seconds from submission")
    p.add_argument("--repeat", type=int, default=1,
                   help="submit this many concurrent copies "
                        "(demonstrates single-flight dedupe)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "serve",
        help="run a JSON jobs file through the concurrent execution "
             "service ('-' reads stdin)",
    )
    p.add_argument("jobs", help="JSON array of request specs, or '-'")
    p.add_argument("--device", default="tesla_c870",
                   help="default GPU preset for jobs without a 'device' key")
    service_flags(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "top",
        help="one-shot live view of a serving status endpoint "
             "(see 'serve --status-port')",
    )
    p.add_argument("url", help="status endpoint, host:port or http://...")
    p.add_argument("--json", action="store_true",
                   help="print the raw /slo JSON snapshot")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="HTTP timeout in seconds")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "postmortem",
        help="reconstruct a dead shard's final moments from its "
             "flight-recorder journal (see 'serve --flight-dir')",
    )
    p.add_argument("journal",
                   help="one shard's journal directory, or a fleet "
                        "--flight-dir root holding one per shard")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON post-mortem")
    p.add_argument("--format", choices=["text", "md", "html"],
                   default="text",
                   help="report format (default human-readable text)")
    p.add_argument("-o", "--output", default="-",
                   help="output file ('-' for stdout)")
    p.add_argument("--window", type=float, default=60.0,
                   help="timeline horizon in seconds before the last "
                        "journaled event")
    p.add_argument("--limit", type=int, default=50,
                   help="newest timeline events to keep")
    p.add_argument("--exit-code", type=int, default=None,
                   help="the dead process's exit code, if known (negative "
                        "= killed by that signal; defaults to the "
                        "supervisor-harvested postmortem.json when present)")
    p.set_defaults(func=cmd_postmortem)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PlanError, ValueError, OSError) as exc:
        # infeasible configurations and unreadable inputs are the
        # user's to fix, and argparse already owns exit code 2
        print(f"repro: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ServiceError as exc:
        print(f"repro: service error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("repro: interrupted", file=sys.stderr)
        return EXIT_FAILURE
    except Exception as exc:  # pragma: no cover - exercised via tests
        print(
            f"repro: internal error: {type(exc).__name__}: {exc} "
            f"(set REPRO_DEBUG=1 for a traceback)",
            file=sys.stderr,
        )
        if os.environ.get("REPRO_DEBUG"):
            import traceback

            traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
