"""The six workloads: which inputs each lifecycle phase runs on.

Every workload runs the same lifecycle — cold / warm / delta compile,
the PB family, numeric and analytic runs, a closed-loop and an
open-loop serving phase — so every run reports every end-to-end metric.
A workload *owns* the phases its name points at: there it substitutes
heavy inputs and takes most of the measurement time.  The phases it
does not own run the small fixed **panel** below, which doubles as the
control: a panel number that moves on a workload that does not target
it is a side effect.

All inputs derive from ``--seed``: the row count of one edge template
per workload (a fraction of a percent, so plan-quality numbers move by
far less than their bound), the values of numeric inputs, the request
order, one member of the PB family and the never-seen templates of
``serve-churn``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro import CompileOptions
from repro.core import OperatorGraph
from repro.gpusim import (
    CORE2_DESKTOP,
    GEFORCE_8800_GTX,
    TESLA_C870,
    XEON_WORKSTATION,
    GpuDevice,
    HostSystem,
    homogeneous_group,
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

KB = 1024
MB = 1024 * KB

#: the compile-scaling device of ``benchmarks/test_compile_scaling.py``
SPLIT_DEVICE = GpuDevice(name="bench-256k", memory_bytes=256 * KB)
MINIMAL_SPLIT = CompileOptions(split_headroom=1.0)
#: the serving device of ``benchmarks/test_service_load.py``
SERVE_DEVICE = GpuDevice(name="bench-serve", memory_bytes=8 * MB)
#: (label, side in pixels, traffic weight) — the BENCH_service mix
SERVE_CLASSES = (
    ("hot", 40, 0.525),
    ("warm", 48, 0.300),
    ("cool", 56, 0.125),
    ("rare", 64, 0.050),
)
#: the PB family is fixed — the gap is a property of the planner, not of
#: the draw (it moves +-12 % between draws) — except its last member
PB_BASE_SEED = 20090525

PHASES = ("cold", "warm", "delta", "pb", "numeric", "analytic", "closed", "open")


@dataclass(frozen=True)
class Case:
    """One template bound to one target (device or device group)."""

    name: str
    build: Callable[[], OperatorGraph]
    device: GpuDevice | None = None
    group: Any = None
    host: HostSystem | None = None
    options: CompileOptions | None = None
    #: numeric inputs; ``None`` for paper-scale (analytic-only) cases
    inputs: Callable[[], dict[str, np.ndarray]] | None = None
    #: small enough (<= ~5k steps) for the quadratic event engine
    events: bool = True


@dataclass(frozen=True)
class Forest:
    """The delta-compile input: an n-branch forest edited one branch at
    a time (``core.incremental``)."""

    n_branches: int
    height: int
    width: int
    device: GpuDevice = SPLIT_DEVICE
    options: CompileOptions = MINIMAL_SPLIT

    def spec(self) -> dict[str, int]:
        return dict(
            n_branches=self.n_branches, height=self.height, width=self.width,
            kernel_size=5, num_orientations=4,
        )


@dataclass(frozen=True)
class Serve:
    fleet: bool = False
    churn: bool = False
    warmup: int = 500
    #: closed loop: 2 clients, blocks of this many requests
    block: int = 200
    #: open loop: fixed arrival rate in requests per second, a fifth to a
    #: quarter of what the closed loop sustains — nearer to capacity the
    #: latency of identical runs differs by a factor of two
    rate: float = 300.0
    #: p95 latency limit in ms (``service.within_limit_share``)
    limit_ms: float = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    compile: tuple[Case, ...]
    #: (small case, big case) of one family, for the scaling exponent
    scaling: tuple[str, str] | None
    forest: Forest
    #: (generator seed, operator count) per PB family member
    pb: tuple[tuple[int, int], ...]
    numeric: tuple[Case, ...]
    analytic: tuple[Case, ...]
    serve: Serve
    #: scaled-down numeric twins of compile templates too big to execute
    twins: tuple[Case, ...]
    #: what one round does per phase: templates cold-compiled (taken in
    #: turn), warm compiles, delta edits, PB members, passes over the
    #: numeric and the analytic cases, closed-loop blocks, open-loop
    #: requests
    per_round: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Template helpers
# ---------------------------------------------------------------------------
def _edge(h: int, w: int, k: int, o: int = 4) -> Callable[[], OperatorGraph]:
    return lambda: find_edges_graph(h, w, k, o)


def _edge_case(
    name: str, h: int, w: int, k: int, device: GpuDevice, seed: int,
    options: CompileOptions | None = None, numeric: bool = True,
) -> Case:
    return Case(
        name=name,
        build=_edge(h, w, k),
        device=device,
        options=options,
        inputs=(
            (lambda: find_edges_inputs(h, w, k, 4, seed=seed))
            if numeric else None
        ),
    )


def _cnn_case(
    name: str, arch: Any, h: int, w: int, device: GpuDevice,
    host: HostSystem | None = None, seed: int | None = None,
    events: bool = True,
) -> Case:
    return Case(
        name=name,
        build=lambda: cnn_graph(arch, h, w),
        device=device,
        host=host,
        inputs=(
            (lambda: cnn_inputs(arch, h, w, seed=seed))
            if seed is not None else None
        ),
        events=events,
    )


def random_template(rng: random.Random, n_ops: int) -> OperatorGraph:
    """Small layered template with unit/2-unit data structures (the
    shape of ``benchmarks/test_ablation_pb_vs_heuristic.py``)."""
    g = OperatorGraph(f"rand{n_ops}")
    g.add_data("in", (2, 1), is_input=True)
    avail = ["in"]
    for i in range(n_ops - 1):
        name = f"d{i}"
        g.add_data(name, (rng.choice([1, 1, 2]), 1))
        k = min(len(avail), rng.choice([1, 1, 2]))
        srcs = rng.sample(avail, k)
        g.add_operator(f"o{i}", "remap" if k == 1 else "max", srcs, [name])
        avail.append(name)
        if len(avail) > 4:
            avail.pop(0)
    g.add_data("out", (1, 1), is_output=True)
    g.add_operator("final", "max", avail[-2:], ["out"])
    return g


def pb_family(sizes: tuple[int, ...], trials: int, seed: int) -> tuple:
    """``trials`` members per size; all fixed except the last, which the
    run seed draws."""
    members = [
        (PB_BASE_SEED + 101 * n + t, n) for n in sizes for t in range(trials)
    ]
    members[-1] = (seed, sizes[-1])
    return tuple(members)


# ---------------------------------------------------------------------------
# The panel: what a workload runs in the phases it does not own
# ---------------------------------------------------------------------------
def _panel(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    device = GpuDevice(name="bench-1m", memory_bytes=1 * MB)
    edge = _edge_case(
        "edge-512", 512 + rng.randint(-1, 1), 512, 8, device, seed
    )
    pyramid = Case(
        name="pyramid-512",
        build=lambda: dog_pyramid_graph(512, 512),
        device=device,
        inputs=lambda: dog_pyramid_inputs(512, 512, seed=seed),
    )
    return Workload(
        name=name,
        seed=seed,
        compile=(edge, pyramid),
        scaling=None,
        forest=Forest(n_branches=8, height=128, width=2048),
        pb=pb_family((6,), 6, seed),
        numeric=(edge, pyramid),
        analytic=(edge, pyramid),
        serve=Serve(),
        twins=(),
        per_round=dict(cold=2, warm=40, delta=2, pb=2, numeric=1, analytic=3,
                       closed=2, open=100),
    )


# ---------------------------------------------------------------------------
# The six workloads
# ---------------------------------------------------------------------------
def compile_split(seed: int) -> Workload:
    """Splitting and graph mutation do most of the work."""
    panel = _panel("compile-split", seed)
    h = 4000 + random.Random(seed).randint(-12, 12)
    main = _edge_case(
        "edge-4000", h, 5000, 5, SPLIT_DEVICE, seed, MINIMAL_SPLIT,
        numeric=False,
    )
    tier = _edge_case(
        "edge-2048", 2048, 2048, 5, SPLIT_DEVICE, seed, MINIMAL_SPLIT,
        numeric=False,
    )
    twin = _edge_case(
        "edge-256-twin", 256, 256, 5,
        GpuDevice(name="bench-32k", memory_bytes=32 * KB), seed, MINIMAL_SPLIT,
    )
    return replace(
        panel,
        compile=(main, tier),
        scaling=("edge-2048", "edge-4000"),
        forest=Forest(n_branches=16, height=128, width=5000),
        twins=(twin,),
        per_round={**panel.per_round, "warm": 60, "delta": 3},
    )


#: rows of Tables 1 and 2 (input sizes are width x height in the paper)
_PAPER_CONFIGS = (
    ("edge", None, 1000, 1000),
    ("edge", None, 10_000, 10_000),
    ("small-cnn", SMALL_CNN, 480, 640),
    ("small-cnn", SMALL_CNN, 480, 6400),
    ("small-cnn", SMALL_CNN, 4800, 6400),
    ("large-cnn", LARGE_CNN, 480, 640),
    ("large-cnn", LARGE_CNN, 480, 6400),
    ("large-cnn", LARGE_CNN, 4800, 6400),
)
_SYSTEMS = (
    ("c870", TESLA_C870, XEON_WORKSTATION),
    ("8800gtx", GEFORCE_8800_GTX, CORE2_DESKTOP),
)


def paper_plans(seed: int) -> Workload:
    """The paper's own result: no operator split on the CNNs, heavy
    Belady eviction — the bypass workload for splitting work."""
    panel = _panel("paper-plans", seed)
    cases = []
    for sys_name, device, host in _SYSTEMS:
        for family, arch, h, w in _PAPER_CONFIGS:
            label = f"{family}-{w}x{h}@{sys_name}"
            if arch is None:
                cases.append(Case(
                    name=label, build=_edge(h, w, 16), device=device,
                    host=host, events=False,
                ))
            else:
                cases.append(_cnn_case(
                    label, arch, h, w, device, host, events=False
                ))
    side = 10_000 + random.Random(seed).randint(-30, 30)
    cases.append(Case(
        name=f"edge-seeded@{_SYSTEMS[0][0]}", build=_edge(side, side, 16),
        device=TESLA_C870, host=XEON_WORKSTATION, events=False,
    ))
    # Twins keep each family's regime: the 8800 GTX holds 1/1600th of its
    # memory at 1/1600th of the pixels, so the CNN twin still evicts.  The
    # large CNN has the small one's operator kinds and no split either; a
    # twin of its 7.4k operators would cost 3 s of every run.
    twins = (
        _edge_case("edge-256-twin", 256, 256, 16,
                   GpuDevice(name="bench-128k", memory_bytes=128 * KB), seed),
        _cnn_case("small-cnn-twin", SMALL_CNN, 120, 160,
                  GpuDevice(name="bench-480k", memory_bytes=480 * KB), seed=seed),
    )
    return replace(
        panel,
        compile=tuple(cases),
        pb=pb_family((6, 8, 10), 5, seed),
        twins=twins,
        per_round={**panel.per_round, "cold": 4, "pb": 3},
    )


def run_plans(seed: int) -> Workload:
    """The plan interpreters, ``ops`` kernels and the ``gpusim``
    allocator do the work; the planner is set-up."""
    panel = _panel("run-plans", seed)
    h = 1024 + random.Random(seed).randint(-3, 3)
    edge = _edge_case(
        "edge-1024", h, 1024, 8,
        GpuDevice(name="bench-4m", memory_bytes=4 * MB), seed,
    )
    cnn = _cnn_case(
        "small-cnn-160x120", SMALL_CNN, 120, 160,
        GpuDevice(name="bench-2m", memory_bytes=2 * MB), seed=seed,
    )
    small_big = _cnn_case(
        "small-cnn-6400x4800@8800gtx", SMALL_CNN, 4800, 6400,
        GEFORCE_8800_GTX, CORE2_DESKTOP,
    )
    twin = Case(
        name="small-cnn-6400x4800@2x8800gtx",
        build=small_big.build,
        group=homogeneous_group(GEFORCE_8800_GTX, 2),
        host=CORE2_DESKTOP,
        events=False,
    )
    # 22k steps: far beyond what the quadratic event engine can walk, so
    # it reaches it only if a later change routes repro.simulate there.
    large = _cnn_case(
        "large-cnn-640x480@c870", LARGE_CNN, 480, 640,
        TESLA_C870, XEON_WORKSTATION, events=False,
    )
    return replace(
        panel,
        numeric=(edge, cnn),
        analytic=(small_big, twin, large),
    )


def serve_warm(seed: int) -> Workload:
    """Request-path overhead with no IPC and no compile."""
    panel = _panel("serve-warm", seed)
    return replace(
        panel,
        serve=Serve(block=500, rate=400.0, limit_ms=5.0),
        per_round={**panel.per_round, "open": 400},
    )


def serve_fleet(seed: int) -> Workload:
    """The same requests through two shard processes: adds ``shard`` +
    ``ipc`` only."""
    panel = _panel("serve-fleet", seed)
    return replace(
        panel,
        serve=Serve(fleet=True, block=250, rate=200.0, limit_ms=10.0),
        per_round={**panel.per_round, "open": 200},
    )


def serve_churn(seed: int) -> Workload:
    """Writes beside reads: cache fills, LRU eviction and numeric runs
    queue in front of warm hits."""
    panel = _panel("serve-churn", seed)
    return replace(
        panel,
        serve=Serve(churn=True, warmup=150, block=80, rate=40.0,
                    limit_ms=50.0),
        per_round={**panel.per_round, "open": 48},
    )


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "compile-split": compile_split,
    "paper-plans": paper_plans,
    "run-plans": run_plans,
    "serve-warm": serve_warm,
    "serve-fleet": serve_fleet,
    "serve-churn": serve_churn,
}


def smoke(workload: Workload) -> Workload:
    """One round on the panel-sized inputs: exercises every code path
    of the workload in seconds (``--smoke``, the tests)."""
    panel = _panel(workload.name, workload.seed)
    return replace(
        panel,
        pb=panel.pb[-2:],
        serve=replace(
            workload.serve, warmup=40, block=60,
            rate=min(workload.serve.rate, 200.0),
        ),
        twins=workload.twins[:1],
        per_round={**panel.per_round, "warm": 20, "closed": 1, "open": 60},
    )
