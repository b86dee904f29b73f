"""Work done per walk, counted instead of timed.

On a box whose speed moves by a quarter from minute to minute, a count
is the gate that does not drift.  The pins here are exact:

* A launch's ``(flops, bytes_accessed)`` is derived once per operator of
  a graph (:func:`repro.ops.launch_cost`).  The compile pipeline derives
  none; the first walk derives each launched operator once; every later
  walk of the same graph, through any plan interpreter, derives none;
  a mutator makes the next walk derive them again.
"""

from collections import Counter

import pytest

from repro.analysis import best_possible
from repro.codegen import generate_python
from repro.core import Framework, PlanCache
from repro.core.plan import Launch
from repro.gpusim import XEON_WORKSTATION, GpuDevice, SimRuntime, homogeneous_group
from repro.multigpu import simulate_multi_plan
from repro.ops import get_impl, known_kinds
from repro.runtime import (
    dynamic_execute,
    execute_plan,
    execute_plan_events,
    simulate_plan,
    simulate_plan_events,
    simulate_plan_overlap,
)
from repro.templates import find_edges_graph, find_edges_inputs

DEVICE = GpuDevice(name="count-dev", memory_bytes=64 * 1024)
HOST = XEON_WORKSTATION
SHAPE = (48, 40, 5, 4)


@pytest.fixture
def flops_calls(monkeypatch):
    """Names of the operators every ``OpImpl.flops`` call was made for."""
    calls: list[str] = []
    classes = {type(get_impl(kind)) for kind in known_kinds()}
    originals = {cls: cls.flops for cls in classes}  # before any is patched
    for cls, real in originals.items():
        def counting(self, op, graph, _real=real):
            calls.append(op.name)
            return _real(self, op, graph)

        monkeypatch.setattr(cls, "flops", counting)
    return calls


@pytest.fixture
def compiled(flops_calls):
    template = find_edges_graph(*SHAPE)
    result = Framework(DEVICE, host=HOST, plan_cache=PlanCache()).compile(template)
    assert flops_calls == [] and result.graph._launch_costs is None
    return result


def launched(compiled) -> Counter:
    return Counter(s.op for s in compiled.plan.steps if isinstance(s, Launch))


INPUTS = find_edges_inputs(*SHAPE, seed=3)
WALKS = {
    "simulate_plan": lambda c: simulate_plan(c.plan, c.graph, DEVICE, HOST),
    "simulate_multi_plan": lambda c: simulate_multi_plan(
        c.plan, c.graph, homogeneous_group(DEVICE, 1), HOST
    ),
    "execute_plan": lambda c: execute_plan(
        c.plan, c.graph, SimRuntime(DEVICE, HOST), INPUTS
    ),
    "simulate_plan_events": lambda c: simulate_plan_events(
        c.plan, c.graph, DEVICE, HOST
    ),
    "execute_plan_events": lambda c: execute_plan_events(
        c.plan, c.graph, DEVICE, INPUTS, HOST
    ),
    "simulate_plan_overlap": lambda c: simulate_plan_overlap(
        c.plan, c.graph, DEVICE, HOST
    ),
    "dynamic_execute": lambda c: dynamic_execute(
        c.graph, SimRuntime(DEVICE, HOST), INPUTS, c.op_order
    ),
    "generate_python": lambda c: generate_python(c.plan, c.graph, DEVICE),
    "best_possible": lambda c: best_possible(c.graph, DEVICE, HOST),
}


class TestLaunchCostIsDerivedOncePerGraph:
    def test_first_walk_derives_each_launched_operator_once(
        self, compiled, flops_calls
    ):
        simulate_plan(compiled.plan, compiled.graph, DEVICE, HOST)
        assert Counter(flops_calls) == Counter(set(launched(compiled)))

    @pytest.mark.parametrize("walk", list(WALKS))
    def test_a_warm_graph_derives_nothing(self, compiled, flops_calls, walk):
        WALKS["simulate_plan"](compiled)
        assert set(compiled.graph.ops) == set(launched(compiled))
        flops_calls.clear()
        WALKS[walk](compiled)
        assert flops_calls == []

    def test_a_mutator_makes_the_next_walk_derive_again(
        self, compiled, flops_calls
    ):
        graph = compiled.graph
        simulate_plan(compiled.plan, graph, DEVICE, HOST)
        op = next(iter(graph.ops.values()))
        graph.set_op_io(op.name, op.inputs, op.outputs)
        flops_calls.clear()
        simulate_plan(compiled.plan, graph, DEVICE, HOST)
        assert Counter(flops_calls) == Counter(set(launched(compiled)))
        flops_calls.clear()
        simulate_plan(compiled.plan, graph, DEVICE, HOST)
        assert flops_calls == []
