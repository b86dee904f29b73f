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
* The event engine issues each event once and decrements each
  dependency edge once: its time grows linearly with plan steps.
* A cold compile never lists a plan's launches; a warm compile
  allocates the same few bytes whatever the size of the plan it hits.
* Every plan walker is one residency-machine walk: each entry point
  visits each step once, a cold compile walks each candidate plan once,
  and a valid plan never asks for an operator's predecessors (only a
  failing launch does, to name the dependency it lacks).
* A served plan-cache hit is one short pass: at most two lock
  acquisitions, its seven events appended to the ring, one window and
  one SLO sample, and no ``threading.Event``, ``Tracer`` or
  ``Framework`` made.
"""

import math
import threading
import time
import tracemalloc
from collections import Counter

import pytest

from repro.analysis import best_possible, plan_timeline
from repro.codegen import generate_python
from repro.core import CompileOptions, Framework, PlanCache, make_feasible
from repro.core import framework as framework_module
from repro.core import graph as graph_module
from repro.core import splitting as splitting_module
from repro.core.graph import DataStructure, GraphError, Operator, OperatorGraph
from repro.core.plan import ExecutionPlan, Launch, validate_plan
from repro.core.walk import Residency
from repro.obs import Tracer, provenance_summary
from repro.gpusim import XEON_WORKSTATION, GpuDevice, SimRuntime, homogeneous_group
from repro.multigpu import MultiSimRuntime, execute_multi_plan, simulate_multi_plan
from repro.ops import get_impl, known_kinds
from repro.runtime import (
    dynamic_execute,
    execute_plan,
    execute_plan_events,
    simulate_plan,
    simulate_plan_events,
    simulate_plan_overlap,
)
from repro.service import ExecutionService, ServiceConfig, ServiceRequest
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


def test_the_event_engine_is_linear_in_plan_steps():
    """The one timed pin here: a loop that rescans its pending events
    each round does so inside one function, with no call to count from
    outside.  Best of three per size on edge plans of ~350, ~1.4k and
    ~7k steps; such a loop fits a seconds-vs-steps exponent of about 2."""
    device = GpuDevice(name="linear-dev", memory_bytes=256 * 1024)
    fw = Framework(device, host=HOST, plan_cache=PlanCache())
    plans = [fw.compile(find_edges_graph(e, e, 5, 4)) for e in (256, 512, 1024)]
    best = [math.inf] * len(plans)
    for _ in range(3):  # round robin, so a slow spell hits every size
        for k, c in enumerate(plans):
            start = time.perf_counter()
            simulate_plan_events(c.plan, c.graph, device, HOST)
            best[k] = min(best[k], time.perf_counter() - start)
    points = [(math.log(len(c.plan.steps)), math.log(t)) for c, t in zip(plans, best)]
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
        (x - mean_x) ** 2 for x, _ in points
    )
    assert slope <= 1.3, f"simulate_plan_events grows as steps^{slope:.2f}"


def test_a_cold_compile_never_lists_launches(monkeypatch):
    """Candidate comparison, the root span and ``compile.done`` read the
    launch count the plan's accounting pass already tallied."""
    calls = []
    real = ExecutionPlan.launches

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(ExecutionPlan, "launches", counting)
    template = find_edges_graph(96, 80, 5, 4)
    compiled = Framework(DEVICE, host=HOST, plan_cache=PlanCache()).compile(template)
    assert compiled.metrics["counters"]["compile.candidates"] > 1
    assert calls == []
    (root,) = [s for s in compiled.spans if s.name == "compile"]
    assert root.attrs["launches"] == len(real(compiled.plan))


def warm_compile_peak_bytes(template, device) -> tuple[int, int]:
    """(operators, peak traced bytes) of one warm compile of ``template``."""
    fw = Framework(device, options=CompileOptions(split_headroom=1.0),
                   plan_cache=PlanCache())
    ops = len(fw.compile(template).graph.ops)
    fw.compile(template)  # memoises the key on the template
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        warm = fw.compile(template)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert warm.metrics["counters"]["plan_cache.hit"] == 1
    return ops, peak


def test_a_warm_compile_allocates_the_same_for_any_plan_size():
    """A hit shares the entry's op-order tuple and key: what it allocates
    does not grow with the plan (a per-hit copy of the op order of 5,000
    operators alone is 40 KB)."""
    big_ops, big = warm_compile_peak_bytes(find_edges_graph(3072, 1024, 5, 4), DEVICE)
    small_ops, small = warm_compile_peak_bytes(find_edges_graph(48, 40, 5, 4), DEVICE)
    assert big_ops >= 5000 and small_ops < 100
    assert big - small < 2048, (big, small)


#: every entry point that walks a compiled plan through the machine
PLAN_WALKS = {
    "validate_plan": lambda c: validate_plan(c.plan, c.graph),
    "plan_timeline": lambda c: plan_timeline(c.plan, c.graph),
    "execute_multi_plan": lambda c: execute_multi_plan(
        c.plan, c.graph, MultiSimRuntime(homogeneous_group(DEVICE, 1), HOST), INPUTS
    ),
    **{name: WALKS[name] for name in (
        "simulate_plan", "simulate_multi_plan", "execute_plan",
        "simulate_plan_events", "execute_plan_events", "simulate_plan_overlap",
    )},
}


class Steps(list):
    """A plan's step list that counts the steps handed out by iteration."""

    visits = 0

    def __iter__(self):
        for step in list.__iter__(self):
            self.visits += 1
            yield step


@pytest.fixture
def walks(monkeypatch):
    """The plans every ``Residency.walk`` call was made for."""
    plans: list = []
    real = Residency.walk

    def counting(self, plan, observer=None):
        plans.append(plan)
        return real(self, plan, observer)

    monkeypatch.setattr(Residency, "walk", counting)
    return plans


@pytest.mark.parametrize("entry", list(PLAN_WALKS))
def test_each_entry_point_visits_each_step_once(compiled, walks, entry):
    plan = compiled.plan
    plan.summary(compiled.graph)  # the accounting memo a compile fills
    plan.steps = Steps(plan.steps)
    PLAN_WALKS[entry](compiled)
    assert walks == [plan]
    assert plan.steps.visits == len(plan.steps)


@pytest.mark.parametrize("entry", list(PLAN_WALKS))
def test_a_valid_plan_never_asks_for_predecessors(compiled, monkeypatch, entry):
    calls = []
    real = OperatorGraph.op_predecessors

    def counting(self, op_name):
        calls.append(op_name)
        return real(self, op_name)

    monkeypatch.setattr(OperatorGraph, "op_predecessors", counting)
    PLAN_WALKS[entry](compiled)
    assert calls == []


def test_a_cold_compile_walks_each_candidate_plan_once(walks):
    template = find_edges_graph(96, 80, 5, 4)
    compiled = Framework(DEVICE, host=HOST, plan_cache=PlanCache()).compile(template)
    candidates = compiled.metrics["counters"]["compile.candidates"]
    assert candidates > 1
    assert len(walks) == len({id(plan) for plan in walks}) <= candidates
    assert any(plan is compiled.plan for plan in walks)


class Counting:
    """Stands in for a lock, a condition or a deque: forwards every call
    and counts acquisitions (``acquire``, ``with``) and ``append``s."""

    def __init__(self, inner, counts: Counter, name: str) -> None:
        self._inner, self._counts, self._name = inner, counts, name

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def acquire(self, *args, **kwargs):
        self._counts[self._name] += 1
        return self._inner.acquire(*args, **kwargs)

    def __enter__(self):
        self._counts[self._name] += 1
        return self._inner.__enter__()

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)

    def append(self, item) -> None:
        self._counts[self._name] += 1
        self._inner.append(item)

    def __iter__(self):
        return iter(self._inner)

    def __len__(self) -> int:
        return len(self._inner)


def test_a_resident_hit_is_one_short_pass(monkeypatch):
    """A compile whose plan is cached is served inside ``submit()`` with
    at most two lock acquisitions (the parent of this pin took 19: seven
    on the event ring, five on the service lock, two on the plan cache,
    three on ``threading.Event``s, one each on the window and the SLO
    tracker), its seven events appended without a lock, and no Event,
    Tracer or Framework made (the parent made two, one and one)."""
    request = ServiceRequest(
        template=find_edges_graph(40, 40, 8, 2),
        device=GpuDevice(name="hit-dev", memory_bytes=8 * 1024 * 1024),
        host=HOST,
    )
    counts: Counter = Counter()
    with ExecutionService(ServiceConfig(workers=1)) as svc:
        assert not svc.submit(request).result(timeout=60).deduped  # the miss
        assert svc.submit(request).result(timeout=60).deduped  # first hit
        svc.metrics_snapshot()  # folds what the two recorded
        for owner, attr, name in (
            (svc, "_lock", "lock"),
            (svc, "_cv", "lock"),
            (svc.plan_cache, "_plock", "lock"),
            (svc.events, "_lock", "lock"),
            (svc.events, "_ring", "ring"),
            (svc._latency_window, "_samples", "window"),
            (svc._slo, "_samples", "slo"),
        ):
            monkeypatch.setattr(owner, attr, Counting(getattr(owner, attr), counts, name))
        for cls in (threading.Event, Tracer, Framework):
            def counted_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kw):
                counts[_name] += 1
                _init(self, *args, **kw)

            monkeypatch.setattr(cls, "__init__", counted_init)
        hits = 50
        for _ in range(hits):
            ticket = svc.submit(request)
            assert ticket.done() and ticket.result(timeout=0).deduped
        monkeypatch.undo()
        snap = svc.metrics_snapshot()["counters"]
    assert snap["service.plan_cache_hits"] == snap["service.dedupe_hits"] == hits + 1
    assert counts["lock"] <= 2 * hits, counts
    assert counts["ring"] == 7 * hits, counts
    assert counts["window"] == counts["slo"] == hits, counts
    assert counts["Event"] == counts["Tracer"] == counts["Framework"] == 0, counts
