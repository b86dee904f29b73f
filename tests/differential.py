"""Differential-testing harness: every executor against the reference.

The framework now has four ways to run a template — the host-only
reference interpreter, the statically planned simulator, the dynamic
run-time orchestrator, and the multi-GPU executor.  All of them run the
same float32 numpy operator implementations over row-chunked graphs, so
their outputs must agree *bitwise*, not merely within tolerance: any
drift means an executor gathered the wrong slot, scattered to the wrong
rows, or dropped a transfer.

This module is a library (no tests); test_differential.py drives it
across the (template x device x planner x executor) matrix and over
seeded random operator graphs.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping

import numpy as np

from repro.core import CompileOptions, Framework, OperatorGraph
from repro.gpusim import GpuDevice, SimRuntime, homogeneous_group
from repro.multigpu import compile_multi, execute_multi
from repro.runtime import dynamic_execute, reference_execute

Outputs = dict[str, np.ndarray]

#: Planner configurations worth differentiating: the default pipeline,
#: a deliberately different scheduler+policy pair, and a lazy-free
#: minimal-split variant.  Correctness must be invariant to all of them.
PLANNERS: dict[str, CompileOptions] = {
    "default": CompileOptions(),
    "bfs-lru": CompileOptions(
        scheduler="bfs", eviction_policy="lru", split_headroom=1.0
    ),
    "topo-fifo-lazy": CompileOptions(
        scheduler="topo", eviction_policy="fifo", eager_free=False
    ),
}


def run_static(
    template: OperatorGraph,
    inputs: Mapping[str, np.ndarray],
    device: GpuDevice,
    options: CompileOptions,
) -> Outputs:
    """Compile a static plan and execute it on the simulator."""
    fw = Framework(device, options=options)
    compiled = fw.compile(template)
    return dict(fw.execute(compiled, inputs).outputs)


def run_dynamic(
    template: OperatorGraph,
    inputs: Mapping[str, np.ndarray],
    device: GpuDevice,
    options: CompileOptions,
) -> Outputs:
    """Execute the compiled (split) graph through the dynamic runtime."""
    compiled = Framework(device, options=options).compile(template)
    result = dynamic_execute(
        compiled.graph, SimRuntime(device), inputs, op_order=compiled.op_order
    )
    return dict(result.outputs)


def make_events_runner(
    copy_streams: str = "per-direction", in_order_copy: bool = False
) -> Callable[..., Outputs]:
    """An executor closure for the discrete-event stream engine.

    The *streams dimension* of the matrix: firing plan steps when their
    dependencies complete (instead of in serialized plan order) must not
    change a single output bit, whichever copy-engine layout is used.
    The engine also asserts its own timing invariant on every run:
    overlap never loses to the synchronous walk.
    """

    def run_events(
        template: OperatorGraph,
        inputs: Mapping[str, np.ndarray],
        device: GpuDevice,
        options: CompileOptions,
    ) -> Outputs:
        from repro.runtime import execute_plan_events

        compiled = Framework(device, options=options).compile(template)
        result = execute_plan_events(
            compiled.plan,
            compiled.graph,
            device,
            inputs,
            copy_streams=copy_streams,
            in_order_copy=in_order_copy,
        )
        assert result.total_time <= result.sync_total_time + 1e-12, (
            f"event engine slower than synchronous walk: "
            f"{result.total_time} > {result.sync_total_time}"
        )
        return dict(result.outputs)

    run_events.__name__ = f"run_events_{copy_streams}"
    return run_events


def make_multi_runner(
    num_devices: int, transfer_mode: str = "peer"
) -> Callable[..., Outputs]:
    """An executor closure for an N-device group in the given mode."""

    def run_multi(
        template: OperatorGraph,
        inputs: Mapping[str, np.ndarray],
        device: GpuDevice,
        options: CompileOptions,
    ) -> Outputs:
        group = homogeneous_group(device, num_devices)
        compiled = compile_multi(
            template, group, options=options, transfer_mode=transfer_mode
        )
        return dict(execute_multi(compiled, inputs).outputs)

    run_multi.__name__ = f"run_multi{num_devices}_{transfer_mode}"
    return run_multi


def make_service_runner(
    shards: int = 0, batch_window: float = 0.0, workers: int = 2
) -> Callable[..., Outputs]:
    """An executor that round-trips through the serving tier.

    ``shards=0`` uses the in-process :class:`ExecutionService`;
    ``shards>0`` spawns the multi-process sharded fleet — the *shard
    dimension* of the differential matrix: results must be bitwise
    identical no matter which process compiled and executed the plan,
    or whether batching coalesced the request with others.
    """
    from repro.service import (
        ExecutionService,
        ServiceConfig,
        ServiceRequest,
        ShardedExecutionService,
    )

    def run_service(
        template: OperatorGraph,
        inputs: Mapping[str, np.ndarray],
        device: GpuDevice,
        options: CompileOptions,
    ) -> Outputs:
        config = ServiceConfig(
            workers=workers,
            max_queue_depth=256,
            batch_window=batch_window,
        )
        if shards > 0:
            svc = ShardedExecutionService(config, shards=shards)
        else:
            svc = ExecutionService(config)
        with svc:
            ticket = svc.submit(ServiceRequest(
                template=template,
                device=device,
                options=options,
                mode="execute",
                inputs=dict(inputs),
            ))
            response = ticket.result(timeout=120)
        assert response.ok, f"service run failed: {response.error}"
        return dict(response.value.outputs)

    run_service.__name__ = (
        f"run_service_shards{shards}" if shards else "run_service"
    )
    return run_service


#: name -> callable(template, inputs, device, options) -> outputs
EXECUTORS: dict[str, Callable[..., Outputs]] = {
    "static": run_static,
    "dynamic": run_dynamic,
    "events": make_events_runner("per-direction"),
    "events-shared": make_events_runner("shared"),
    "multi2-peer": make_multi_runner(2, "peer"),
    "multi3-staged": make_multi_runner(3, "staged"),
}


def assert_bitwise_equal(
    reference: Mapping[str, np.ndarray], got: Mapping[str, np.ndarray], label: str
) -> None:
    """Outputs must match the reference exactly, key for key."""
    assert set(got) == set(reference), (
        f"{label}: output names {sorted(got)} != {sorted(reference)}"
    )
    for name, ref in reference.items():
        arr = got[name]
        assert arr.shape == ref.shape, (
            f"{label}: {name} shape {arr.shape} != {ref.shape}"
        )
        if not np.array_equal(arr, ref):
            bad = int(np.sum(arr != ref))
            raise AssertionError(
                f"{label}: {name} differs from reference in {bad}/{ref.size} "
                f"elements (max abs err "
                f"{float(np.max(np.abs(arr - ref))):.3e})"
            )


def differential_check(
    template: OperatorGraph,
    inputs: Mapping[str, np.ndarray],
    device: GpuDevice,
    options: CompileOptions,
    executors: Mapping[str, Callable[..., Outputs]] | None = None,
) -> Outputs:
    """Run every executor and compare each bitwise against the reference.

    Returns the reference outputs (handy for extra assertions).
    """
    reference = reference_execute(template.copy(), inputs)
    for name, runner in (executors or EXECUTORS).items():
        got = runner(template.copy(), inputs, device, options)
        assert_bitwise_equal(reference, got, name)
    return reference


def assert_engine_matches_reference(
    graph: OperatorGraph,
    capacity_floats: int | None = None,
    schedulers: tuple[str, ...] = ("dfs", "dfs_naive"),
    policies: tuple[str, ...] = ("belady", "cost", "ltu", "lru", "fifo"),
) -> None:
    """The planner engine must agree with the reference *byte for byte*.

    For every DFS scheduler × eviction policy × eager/lazy combination,
    ``repro.core``'s table-based planner must produce exactly the
    operator order, plan steps and provenance notes of the plain
    dict-based oracle in :mod:`tests.reference_planner` — compared as
    canonical JSON, so any drift (a reordered step, a changed note
    string) fails loudly.
    """
    import json

    from repro.core import SCHEDULERS, lower, plan_to_dict, schedule_transfers

    from . import reference_planner as reference

    cap = capacity_floats
    if cap is None:
        # tight enough to force evictions, loose enough to be feasible
        cap = max(graph.max_footprint(), 1) * 2
    col = lower(graph)
    for sched in schedulers:
        ref_order = reference.REFERENCE_SCHEDULERS[sched](graph)
        order = SCHEDULERS[sched](graph, col)
        assert order == ref_order, f"{sched}: operator order differs"
        for policy in policies:
            for eager in (True, False):
                ref = reference.schedule_transfers(
                    graph, ref_order, cap, policy=policy, eager_free=eager
                )
                got = schedule_transfers(
                    graph, order, cap,
                    policy=policy, eager_free=eager, col=col,
                )
                a = json.dumps(plan_to_dict(ref), sort_keys=True)
                b = json.dumps(plan_to_dict(got), sort_keys=True)
                assert a == b, (
                    f"engine plan differs from reference: "
                    f"{sched}/{policy}/eager={eager}"
                )


# ---------------------------------------------------------------------------
# Seeded random operator graphs
# ---------------------------------------------------------------------------
def random_operator_graph(
    seed: int, n_layers: int = 3, width: int = 3
) -> OperatorGraph:
    """A random layered DAG over shape-preserving library operators.

    Every data structure in one graph shares a shape so any subset of
    predecessors is a valid multi-input; kinds are drawn from the real
    operator library so all executors use the same numpy impls.
    """
    rng = random.Random(seed)
    rows = rng.choice([16, 24, 32])
    cols = rng.choice([8, 16])
    g = OperatorGraph(f"rand{seed}")
    prev: list[str] = []
    for i in range(width):
        g.add_data(f"in{i}", (rows, cols), is_input=True)
        prev.append(f"in{i}")
    unary = ["remap", "relu", "tanh", "scale"]
    binary = ["add", "sub", "mul", "max"]
    for layer in range(n_layers):
        cur: list[str] = []
        for i in range(width):
            name = f"d{layer}_{i}"
            is_last = layer == n_layers - 1
            g.add_data(name, (rows, cols), is_output=is_last)
            if rng.random() < 0.5 or len(prev) < 2:
                kind = rng.choice(unary)
                src = [rng.choice(prev)]
            else:
                kind = rng.choice(binary)
                src = rng.sample(prev, k=2)
            g.add_operator(f"o{layer}_{i}", kind, src, [name])
            cur.append(name)
        prev = cur
    # Dead intermediates become outputs so every plan must save them.
    for d, ds in g.data.items():
        if not ds.is_input and not ds.is_output and not g.consumers.get(d):
            g.mark_output(d)
    g.validate()
    return g


def random_inputs(
    graph: OperatorGraph, seed: int
) -> dict[str, np.ndarray]:
    """Deterministic float32 arrays for every root input of the graph."""
    rng = np.random.default_rng(seed)
    out: dict[str, np.ndarray] = {}
    for name, ds in graph.data.items():
        if ds.is_input and ds.parent is None:
            out[name] = rng.standard_normal(ds.shape).astype(np.float32)
    return out
