"""Work done per walk, counted instead of timed.

On a box whose speed moves by a quarter from minute to minute, a count
is the gate that does not drift.  The pins here are exact:

* A launch's ``(flops, bytes_accessed)`` is derived once per operator of
  a graph (:func:`repro.ops.launch_cost`).  The compile pipeline derives
  none; the first walk derives each launched operator once; every later
  walk of the same graph, through any plan interpreter, derives none;
  an (unfrozen) copy derives them afresh, its frozen original never again.
* Splitting plans its cuts on row ranges and builds the result once:
  one ``DataStructure`` per new datum, one ``Operator`` per new part,
  one pass through the graph's mutator guard (the table swap) and one
  topological pass (the closing validation).
* A compile tallies each candidate plan's provenance notes once.
"""

from collections import Counter

import pytest

from repro.analysis import best_possible
from repro.codegen import generate_python
from repro.core import Framework, PlanCache, make_feasible
from repro.core import framework as framework_module
from repro.core import graph as graph_module
from repro.core import splitting as splitting_module
from repro.core.graph import DataStructure, GraphError, Operator, OperatorGraph
from repro.core.plan import Launch
from repro.obs import provenance_summary
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

    def test_a_copy_derives_the_original_does_not(
        self, compiled, flops_calls
    ):
        graph = compiled.graph
        assert graph.frozen
        simulate_plan(compiled.plan, graph, DEVICE, HOST)
        clone = graph.copy()
        flops_calls.clear()
        simulate_plan(compiled.plan, clone, DEVICE, HOST)
        assert Counter(flops_calls) == Counter(set(launched(compiled)))
        flops_calls.clear()
        simulate_plan(compiled.plan, graph, DEVICE, HOST)
        simulate_plan(compiled.plan, clone, DEVICE, HOST)
        assert flops_calls == []
        with pytest.raises(GraphError, match="frozen"):
            graph.add_data("extra", (1, 1))


@pytest.fixture
def graph_work(monkeypatch):
    """Counts of vertex constructions, mutator-guard and traversal calls.

    The graph and splitting modules build vertices from counting
    subclasses; a vertex is counted at ``__new__``, so a construction
    that skips ``__init__`` counts too.
    """
    counts: Counter = Counter()
    for cls in (DataStructure, Operator):
        def new(kind, *args, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            return object.__new__(kind)

        counting = type(cls.__name__, (cls,), {"__slots__": (), "__new__": new})
        for module in (graph_module, splitting_module):
            monkeypatch.setattr(module, cls.__name__, counting, raising=False)
    for method in ("_begin_edit", "topological_order"):
        real = getattr(OperatorGraph, method)

        def counted(self, *args, _real=real, _method=method, **kwargs):
            counts[_method] += 1
            if _method == "topological_order":
                counts["ops_ordered"] += len(self.ops)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(OperatorGraph, method, counted)
    return counts


class TestSplittingBuildsOnce:
    def test_every_vertex_is_built_once_and_nothing_is_rewired(self, graph_work):
        template = find_edges_graph(512, 512, 5, 4)
        graph = template.copy()
        graph_work.clear()
        report = make_feasible(graph, DEVICE.usable_memory_floats // 2)
        assert report.rounds >= 1 and len(report.split_ops) == len(template.ops)
        new_data = [d for d in graph.data if d not in template.data]
        new_ops = [o for o in graph.ops if o not in template.ops]
        assert len(new_ops) > 500
        assert graph_work["DataStructure"] == len(new_data)
        assert graph_work["Operator"] == len(new_ops)
        assert graph_work["_begin_edit"] == 1  # the one table swap
        # Round 0 orders the template's operators, the closing validation
        # the split graph's; the round that finds nothing over capacity
        # orders nothing.
        assert graph_work["topological_order"] == 2
        assert graph_work["ops_ordered"] == len(template.ops) + len(graph.ops)


def test_a_compile_tallies_each_candidate_plan_once(monkeypatch):
    calls = []

    def tally(plan):
        calls.append(plan)
        return provenance_summary(plan)

    monkeypatch.setattr(framework_module, "provenance_summary", tally)
    template = find_edges_graph(96, 80, 5, 4)
    compiled = Framework(DEVICE, host=HOST, plan_cache=PlanCache()).compile(template)
    candidates = compiled.metrics["counters"]["compile.candidates"]
    assert candidates > 1
    assert len(calls) == len({id(plan) for plan in calls}) <= candidates
    assert any(plan is compiled.plan for plan in calls)
    reasons = {
        key[len("plan.reason."):]: value
        for key, value in compiled.metrics["counters"].items()
        if key.startswith("plan.reason.")
    }
    assert reasons == provenance_summary(compiled.plan)
