"""Heap-based eviction must be plan-identical to the linear reference.

The transfer scheduler (``repro.core.transfers``) keeps eviction
candidates in a lazily-invalidated max-heap with eagerly-advanced
next-use pointers; ``tests/reference_planner.py`` picks every victim
with a linear scan of the resident set.  This suite drives both over the
same schedules — random layered DAGs (hypothesis), split out-of-core
graphs, and a capacity sweep — asserting the *full plan* (every upload,
victim choice, free, and provenance note) is identical, not just the
victim sequence.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from . import reference_planner
from .differential import random_operator_graph
from repro.core import plan_to_dict, schedule_transfers
from repro.core.scheduling import get_scheduler
from repro.templates import find_edges_graph

POLICIES = ["belady", "cost", "ltu", "lru", "fifo"]


def plans_for(graph, capacity, policy, eager_free=True, scheduler="dfs"):
    order = get_scheduler(scheduler)(graph)
    heap = schedule_transfers(
        graph, order, capacity, policy=policy, eager_free=eager_free
    )
    linear = reference_planner.schedule_transfers(
        graph, order, capacity, policy=policy, eager_free=eager_free
    )
    return heap, linear


def assert_identical(heap, linear):
    assert json.dumps(plan_to_dict(heap), sort_keys=True) == json.dumps(
        plan_to_dict(linear), sort_keys=True
    )
    assert heap.notes == linear.notes  # eviction provenance, victim order


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_layers=st.integers(2, 5),
    width=st.integers(2, 4),
    policy=st.sampled_from(POLICIES),
    eager_free=st.booleans(),
    cap_frac=st.floats(0.3, 1.2),
)
def test_heap_matches_linear_on_random_graphs(
    seed, n_layers, width, policy, eager_free, cap_frac
):
    graph = random_operator_graph(seed, n_layers=n_layers, width=width)
    # A tight capacity forces evictions (the interesting regime) while
    # staying above the largest single working set so plans exist.
    worst = max(
        sum(
            graph.data[d].size
            for d in dict.fromkeys(list(op.inputs) + list(op.outputs))
        )
        for op in graph.ops.values()
    )
    capacity = max(worst, int(graph.total_data_size() * cap_frac))
    heap, linear = plans_for(graph, capacity, policy, eager_free=eager_free)
    assert_identical(heap, linear)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("eager_free", [True, False])
def test_heap_matches_linear_on_split_graph(policy, eager_free):
    from repro.core.splitting import make_feasible

    graph = find_edges_graph(512, 512, 5, 4).copy()
    capacity = (256 * 1024 // 4) * 9 // 10
    make_feasible(graph, capacity)
    heap, linear = plans_for(
        graph, capacity, policy, eager_free=eager_free
    )
    assert_identical(heap, linear)
    assert any(s.__class__.__name__ == "Free" for s in heap.steps)


@pytest.mark.parametrize("divisor", [1, 2, 3, 5])
def test_heap_matches_linear_across_capacities(divisor):
    graph = random_operator_graph(7, n_layers=4, width=4)
    capacity = max(
        graph.total_data_size() // divisor,
        max(
            sum(
                graph.data[d].size
                for d in dict.fromkeys(list(op.inputs) + list(op.outputs))
            )
            for op in graph.ops.values()
        ),
    )
    for policy in ("belady", "cost"):
        heap, linear = plans_for(graph, capacity, policy)
        assert_identical(heap, linear)
