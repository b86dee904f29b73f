"""Launch costs memoised on the graph change no result and no byte.

Every plan interpreter reads a launch's ``(flops, bytes_accessed)``
through :func:`repro.ops.launch_cost`, which derives it once per
operator and keeps it on the graph.  Pinned here: a cold memo, a warm
memo and a memo-free copy of the graph give equal results through every
reader, threads sharing one cached graph agree, and the memo never rides
in a pickle, so neither plan-cache entries nor shard frames change.
"""

import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis import best_possible
from repro.codegen import generate_python
from repro.core import Framework, PlanCache, graph_from_dict, graph_to_dict
from repro.gpusim import (
    XEON_WORKSTATION,
    GpuDevice,
    Observation,
    SimRuntime,
    calibrate,
    homogeneous_group,
)
from repro.multigpu import compile_multi, simulate_multi_plan
from repro.ops import launch_cost
from repro.runtime import (
    execute_plan,
    simulate_plan,
    simulate_plan_events,
    simulate_plan_overlap,
)
from repro.service import (
    ExecutionService,
    ServiceConfig,
    ServiceRequest,
    ShardedExecutionService,
)
from repro.templates import SMALL_CNN, cnn_graph, find_edges_graph, find_edges_inputs

DEVICE = GpuDevice(name="cost-dev", memory_bytes=64 * 1024)
HOST = XEON_WORKSTATION
SHAPE = (48, 40, 5, 4)


def three_ways(walk, graph):
    """``walk`` on a cold memo (a frozen copy no walk has seen), on the
    same copy warm, and on a memo-free round trip of the graph."""
    graph = graph.copy().freeze()
    cold = walk(graph)
    assert graph._launch_costs
    warm = walk(graph)
    return cold, warm, walk(graph_from_dict(graph_to_dict(graph)))


@pytest.fixture
def compiled():
    template = find_edges_graph(*SHAPE)
    return Framework(DEVICE, host=HOST, plan_cache=PlanCache()).compile(template)


class TestEqualResults:
    def test_simulated_run_on_one_device(self, compiled):
        cold, warm, free = three_ways(
            lambda g: simulate_plan(compiled.plan, g, DEVICE, HOST, record_events=True),
            compiled.graph,
        )
        assert cold == warm == free

    @pytest.mark.parametrize("shared_bus", [False, True])
    def test_simulated_run_on_two_devices(self, shared_bus):
        group = homogeneous_group(DEVICE, 2, shared_bus=shared_bus)
        multi = compile_multi(
            cnn_graph(SMALL_CNN, 64, 48), group, host=HOST, plan_cache=False
        )
        cold, warm, free = three_ways(
            lambda g: simulate_multi_plan(multi.plan, g, group, HOST), multi.graph
        )
        assert cold == warm == free

    def test_execute_plan(self, compiled):
        inputs = find_edges_inputs(*SHAPE, seed=5)
        runs = three_ways(
            lambda g: execute_plan(compiled.plan, g, SimRuntime(DEVICE, HOST), inputs),
            compiled.graph,
        )
        first = runs[0]
        for run in runs[1:]:
            assert run.outputs.keys() == first.outputs.keys()
            for name, array in run.outputs.items():
                assert np.array_equal(array, first.outputs[name])
            assert run.elapsed == first.elapsed
            assert run.profile.events == first.profile.events

    def test_event_timeline(self, compiled):
        cold, warm, free = three_ways(
            lambda g: simulate_plan_events(compiled.plan, g, DEVICE, HOST),
            compiled.graph,
        )
        assert cold == warm == free

    def test_overlap(self, compiled):
        cold, warm, free = three_ways(
            lambda g: simulate_plan_overlap(compiled.plan, g, DEVICE, HOST),
            compiled.graph,
        )
        assert cold == warm == free

    def test_generated_python(self, compiled):
        cold, warm, free = three_ways(
            lambda g: generate_python(compiled.plan, g, DEVICE), compiled.graph
        )
        assert cold == warm == free

    def test_best_possible(self, compiled):
        cold, warm, free = three_ways(
            lambda g: best_possible(g, DEVICE, HOST), compiled.graph
        )
        assert cold == warm == free

    def test_calibration(self, compiled):
        def fit(graph):
            observed = Observation(compiled.plan, graph, 0.01, "edge")
            return calibrate(
                DEVICE, [observed], HOST,
                bandwidths=[1.0e9, 2.0e9], efficiencies=[0.1, 0.3],
                refine_rounds=1,
            )

        cold, warm, free = three_ways(fit, compiled.graph)
        assert cold == warm == free


class TestTransport:
    def test_pickle_is_unchanged_by_a_walk(self, compiled):
        before = pickle.dumps(compiled.graph)
        simulate_plan(compiled.plan, compiled.graph, DEVICE, HOST)
        assert compiled.graph._launch_costs
        assert pickle.dumps(compiled.graph) == before
        assert pickle.loads(before)._launch_costs is None

    def test_copy_does_not_carry_the_memo(self, compiled):
        simulate_plan(compiled.plan, compiled.graph, DEVICE, HOST)
        assert compiled.graph.copy()._launch_costs is None

    @pytest.mark.timeout(120)
    def test_simulate_through_two_shards(self):
        def request():
            return ServiceRequest(
                template=find_edges_graph(*SHAPE), device=DEVICE, host=HOST,
                mode="simulate",
            )

        with ExecutionService(ServiceConfig(workers=1)) as svc:
            direct = svc.submit(request()).result(timeout=60)
        config = ServiceConfig(workers=1, max_queue_depth=16)
        with ShardedExecutionService(config, shards=2) as fleet:
            # the second walks the shard's cached graph with a warm memo
            served = [fleet.submit(request()).result(timeout=60) for _ in range(2)]
        assert direct.ok and all(r.ok for r in served)
        assert served[0].value == served[1].value == direct.value


class TestSharedGraph:
    @pytest.mark.timeout(120)
    def test_threads_walking_one_cold_graph_agree(self, compiled):
        fresh = graph_from_dict(graph_to_dict(compiled.graph))
        expected = simulate_plan(compiled.plan, fresh, DEVICE, HOST)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                graph = compiled.graph.copy().freeze()  # a cold cached graph
                with ThreadPoolExecutor(8) as pool:
                    futures = [
                        pool.submit(simulate_plan, compiled.plan, graph, DEVICE, HOST)
                        for _ in range(8)
                    ]
                    results += [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 40 and all(r == expected for r in results)
        assert graph._launch_costs == {
            name: launch_cost(op, fresh) for name, op in fresh.ops.items()
        }
