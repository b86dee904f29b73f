"""Cross-module integration and failure-injection tests.

The end-to-end invariant of the whole system: *any* template, compiled
with *any* option combination for *any* device capacity, must (a) pass
plan validation, (b) execute within the simulated device's physical
memory, and (c) reproduce the host-reference numerics exactly.  Plus:
corrupted plans must be rejected by the validator, not silently
mis-execute.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CompileOptions,
    CopyToGPU,
    Framework,
    Free,
    Launch,
    OperatorGraph,
    PlanError,
    validate_plan,
)
from repro.gpusim import GpuDevice
from repro.runtime import reference_execute
from repro.templates import (
    dog_pyramid_graph,
    dog_pyramid_inputs,
    find_edges_graph,
    find_edges_inputs,
)


def random_template(rng: random.Random) -> tuple[OperatorGraph, dict]:
    """A random mixed-operator template with real inputs."""
    h = rng.choice([16, 24, 32]) * 2
    w = rng.choice([16, 24, 32]) * 2
    g = OperatorGraph("itest")
    g.add_data("X", (h, w), is_input=True)
    inputs = {
        "X": np.random.default_rng(rng.randint(0, 999))
        .standard_normal((h, w))
        .astype(np.float32)
    }
    avail = [("X", (h, w))]
    n_ops = rng.randint(3, 10)
    for i in range(n_ops):
        src, shape = rng.choice(avail)
        kind = rng.choice(
            ["tanh", "remap", "scale", "relu", "conv", "sub2", "max2"]
        )
        name = f"d{i}"
        if kind == "conv":
            k = rng.choice([3, 5])
            kn = f"k{i}"
            g.add_data(kn, (k, k), is_input=True)
            inputs[kn] = (
                np.random.default_rng(i).standard_normal((k, k)).astype(np.float32)
            )
            g.add_data(name, shape)
            g.add_operator(f"o{i}", "conv2d", [src, kn], [name], mode="same")
        elif kind in ("sub2", "max2"):
            pool = [a for a in avail if a[1] == shape]
            if len(pool) < 2:
                g.add_data(name, shape)
                g.add_operator(f"o{i}", "tanh", [src], [name])
            else:
                a, b = rng.sample(pool, 2)
                g.add_data(name, shape)
                g.add_operator(
                    f"o{i}",
                    "sub" if kind == "sub2" else "max",
                    [a[0], b[0]],
                    [name],
                )
        else:
            g.add_data(name, shape)
            params = {"factor": 0.5} if kind == "scale" else {}
            g.add_operator(f"o{i}", kind, [src], [name], **params)
        avail.append((name, shape))
    # Mark sinks as outputs.
    for d, ds in g.data.items():
        if not ds.is_input and not g.consumers.get(d):
            g.mark_output(d)
    g.validate()
    return g, inputs


class TestRandomTemplatesEndToEnd:
    @pytest.mark.parametrize("seed", range(12))
    def test_compile_execute_matches_reference(self, seed):
        rng = random.Random(seed)
        graph, inputs = random_template(rng)
        ref = reference_execute(graph, inputs)
        cap_frac = rng.choice([0.2, 0.4, 0.8, 2.0])
        mem = max(int(graph.max_footprint() * 4 * cap_frac), 6000)
        dev = GpuDevice(name=f"it{seed}", memory_bytes=mem)
        opts = CompileOptions(
            scheduler=rng.choice(["dfs", "bfs", "topo"]),
            eviction_policy=rng.choice(["belady", "lru", "fifo", "ltu"]),
            eager_free=rng.choice([True, False]),
        )
        fw = Framework(dev, options=opts)
        compiled = fw.compile(graph)
        res = fw.execute(compiled, inputs)
        assert set(res.outputs) == set(ref)
        for k in ref:
            np.testing.assert_allclose(
                res.outputs[k], ref[k], rtol=1e-3, atol=1e-4, err_msg=k
            )


class TestFailureInjection:
    def make(self):
        # Device small enough that the plan must evict: dropping frees
        # then provably overflows capacity.
        g = find_edges_graph(40, 32, 5, 4)
        fw = Framework(GpuDevice(name="fi", memory_bytes=24 * 1024))
        return g, fw.compile(g)

    def test_dropped_upload_caught(self):
        g, compiled = self.make()
        steps = [
            s
            for s in compiled.plan.steps
            if not isinstance(s, CopyToGPU)
            or s.data != compiled.plan.steps[0].data
        ]
        bad = type(compiled.plan)(steps, compiled.plan.capacity_floats)
        with pytest.raises(PlanError):
            validate_plan(bad, compiled.graph)

    def test_dropped_free_caught_by_capacity(self):
        g, compiled = self.make()
        steps = [s for s in compiled.plan.steps if not isinstance(s, Free)]
        bad = type(compiled.plan)(steps, compiled.plan.capacity_floats)
        with pytest.raises(PlanError):
            validate_plan(bad, compiled.graph, compiled.plan.capacity_floats)

    def test_reordered_launch_caught(self):
        g, compiled = self.make()
        launches = [i for i, s in enumerate(compiled.plan.steps) if isinstance(s, Launch)]
        steps = list(compiled.plan.steps)
        steps[launches[0]], steps[launches[-1]] = (
            steps[launches[-1]],
            steps[launches[0]],
        )
        bad = type(compiled.plan)(steps, compiled.plan.capacity_floats)
        with pytest.raises(PlanError):
            validate_plan(bad, compiled.graph)

    def test_duplicated_launch_caught(self):
        g, compiled = self.make()
        steps = list(compiled.plan.steps)
        launch = next(s for s in steps if isinstance(s, Launch))
        steps.append(launch)
        bad = type(compiled.plan)(steps, compiled.plan.capacity_floats)
        with pytest.raises(PlanError):
            validate_plan(bad, compiled.graph)

    def test_executor_rejects_missing_buffer(self):
        """Execution of a plan referencing an unallocated buffer fails
        loudly at that step, with the validator's message."""
        from repro.core.plan import CopyToCPU, ExecutionPlan
        from repro.gpusim import SimRuntime
        from repro.runtime import execute_plan

        g = find_edges_graph(16, 16, 3, 2)
        plan = ExecutionPlan([CopyToCPU("Edg")], 10**9)
        rt = SimRuntime(GpuDevice(name="x", memory_bytes=1 << 20))
        with pytest.raises(PlanError, match=r"^step 0: d2h of 'Edg' not on device 0$"):
            execute_plan(plan, g, rt, find_edges_inputs(16, 16, 3, 2))


class TestMultiTemplateSession:
    def test_three_templates_one_device(self):
        """A session compiling all three domain templates for one card."""
        dev = GpuDevice(name="session", memory_bytes=256 * 1024)
        fw = Framework(dev)
        edge = find_edges_graph(64, 48, 5, 4)
        pyr = dog_pyramid_graph(64, 48, octaves=2)
        e_in = find_edges_inputs(64, 48, 5, 4, seed=1)
        p_in = dog_pyramid_inputs(64, 48, seed=1)
        for graph, inputs in ((edge, e_in), (pyr, p_in)):
            ref = reference_execute(graph, inputs)
            res = fw.execute(fw.compile(graph), inputs)
            for k in ref:
                np.testing.assert_allclose(
                    res.outputs[k], ref[k], rtol=1e-3, atol=1e-4
                )


@settings(max_examples=20, deadline=None)
@given(
    mem_kb=st.integers(24, 200),
    scheduler=st.sampled_from(["dfs", "bfs", "topo"]),
    policy=st.sampled_from(["belady", "lru", "fifo"]),
)
def test_property_any_configuration_is_sound(mem_kb, scheduler, policy):
    """Hypothesis: arbitrary (memory, scheduler, policy) combinations all
    compile to valid plans whose execution matches the reference."""
    graph = find_edges_graph(40, 32, 5, 4)
    inputs = find_edges_inputs(40, 32, 5, 4, seed=0)
    ref = reference_execute(graph, inputs)["Edg"]
    dev = GpuDevice(name=f"h{mem_kb}", memory_bytes=mem_kb * 1024)
    fw = Framework(
        dev, options=CompileOptions(scheduler=scheduler, eviction_policy=policy)
    )
    compiled = fw.compile(graph)
    assert compiled.peak_device_floats <= dev.usable_memory_floats
    res = fw.execute(compiled, inputs)
    np.testing.assert_allclose(res.outputs["Edg"], ref, rtol=1e-3, atol=1e-4)
