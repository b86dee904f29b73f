"""PB is a compile pass: ``CompileOptions(scheduler="pb")``.

The pass is ``pb_plan_or_heuristic`` under ``PB_CONFLICT_BUDGET`` on the
split, frozen graph; its plan goes through the same validation, the same
``CompiledTemplate`` and the same plan cache as every other compile.
"""

import json
import random

import pytest

import repro
from repro.core import (
    PB_CONFLICT_BUDGET,
    CompileOptions,
    Framework,
    OperatorGraph,
    PlanCache,
    pb_plan_or_heuristic,
)
from repro.core.serialize import plan_to_dict
from repro.gpusim import GpuDevice, homogeneous_group
from repro.templates import find_edges_graph

PB = CompileOptions(scheduler="pb", split_headroom=1.0)


def random_template(rng: random.Random, n_ops: int) -> OperatorGraph:
    """The small layered templates of the PB-vs-heuristic ablation."""
    g = OperatorGraph(f"rand{n_ops}")
    g.add_data("in", (2, 1), is_input=True)
    avail = ["in"]
    for i in range(n_ops - 1):
        name = f"d{i}"
        g.add_data(name, (rng.choice([1, 1, 2]), 1))
        k = min(len(avail), rng.choice([1, 1, 2]))
        g.add_operator(
            f"o{i}", "remap" if k == 1 else "max", rng.sample(avail, k), [name]
        )
        avail.append(name)
        if len(avail) > 4:
            avail.pop(0)
    g.add_data("out", (1, 1), is_output=True)
    g.add_operator("final", "max", avail[-2:], ["out"])
    return g


def family():
    """15 instances: five each of 6, 8 and 10 operators, on a device
    whose usable memory is the template's largest operator footprint."""
    rng = random.Random(2009)
    for n_ops in (6, 8, 10):
        for trial in range(5):
            g = random_template(rng, n_ops)
            cap = max(g.max_footprint(), 5)
            device = GpuDevice(
                name="pb-dev", memory_bytes=4 * cap, memory_reserve=1.0
            )
            assert device.usable_memory_floats == cap
            yield pytest.param(g, device, id=f"{g.name}-{trial}")
    yield pytest.param(
        find_edges_graph(64, 64, 8, 2),
        GpuDevice(name="svc-dev", memory_bytes=8 * 1024 * 1024),
        id="edge64",
    )


def plan_bytes(plan) -> bytes:
    return json.dumps(plan_to_dict(plan), sort_keys=True).encode()


@pytest.mark.timeout(60)
@pytest.mark.parametrize("graph, device", list(family()))
def test_pass_equals_the_direct_entry_point(graph, device):
    cache = PlanCache()
    compiled = repro.compile(graph, device=device, options=PB, plan_cache=cache)
    direct = pb_plan_or_heuristic(
        graph.copy(),
        device.usable_memory_floats,
        conflict_budget=PB_CONFLICT_BUDGET,
    )
    assert plan_bytes(compiled.plan) == plan_bytes(direct.plan)
    assert compiled.op_order == tuple(direct.op_order)
    assert compiled.source == direct.source
    assert compiled.peak_device_floats > 0
    names = [s.name for s in compiled.spans]
    assert "pb_or_heuristic" in names and "validate" in names
    assert "operator_scheduling" not in names
    again = repro.compile(graph, device=device, options=PB, plan_cache=cache)
    assert again.metrics["counters"]["plan_cache.hit"] == 1
    assert again.source == compiled.source
    assert plan_bytes(again.plan) == plan_bytes(compiled.plan)


@pytest.mark.parametrize(
    "options, source",
    [(PB, "pb-incumbent"), (CompileOptions(split_headroom=1.0), "heuristic")],
)
def test_incremental_compile_reports_its_source(options, source):
    """Stitched fragment plans are feasible, not a proven optimum."""
    g = random_template(random.Random(2009), 6)
    device = GpuDevice(
        name="pb-dev", memory_bytes=4 * g.max_footprint(), memory_reserve=1.0
    )
    fw = Framework(device, options=options, plan_cache=PlanCache())
    assert fw.compile_incremental(g).compiled.source == source
    assert fw.compile(g).source == source.removesuffix("-incumbent")


class TestOptionValues:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"scheduler": "x"}, "unknown operator scheduler 'x'"),
            ({"eviction_policy": "nope"}, "unknown eviction policy 'nope'"),
        ],
    )
    def test_unknown_values_raise(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            CompileOptions(**kwargs)


def test_a_device_group_rejects_pb():
    device = GpuDevice(name="svc-dev", memory_bytes=8 * 1024 * 1024)
    with pytest.raises(ValueError, match="plans one device"):
        repro.compile(
            find_edges_graph(64, 64, 8, 2),
            group=homogeneous_group(device, 2),
            options=CompileOptions(scheduler="pb"),
        )
