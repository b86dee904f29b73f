"""Hypothesis property tests for the transfer scheduler.

Beyond the fixed-example tests in test_transfers.py: random layered
graphs, random capacities and every policy combination must produce
plans that validate, stay within capacity, and satisfy the analytic
bracketing (I/O bound <= plan volume <= baseline volume).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    OperatorGraph,
    baseline_transfer_floats,
    dfs_schedule,
    schedule_transfers,
    validate_plan,
)


def layered_graph(seed: int, n_layers: int, width: int) -> OperatorGraph:
    rng = random.Random(seed)
    g = OperatorGraph(f"prop{seed}")
    prev = []
    for i in range(width):
        g.add_data(f"in{i}", (rng.choice([2, 4, 8]), 2), is_input=True)
        prev.append(f"in{i}")
    for layer in range(n_layers):
        cur = []
        for i in range(width):
            name = f"d{layer}_{i}"
            src = rng.sample(prev, k=rng.randint(1, min(2, len(prev))))
            shape = g.data[src[0]].shape
            src = [s for s in src if g.data[s].shape == shape]
            g.add_data(name, shape, is_output=(layer == n_layers - 1))
            g.add_operator(
                f"o{layer}_{i}",
                "remap" if len(src) == 1 else "max",
                src,
                [name],
            )
            cur.append(name)
        prev = cur
    # Orphan intermediate sinks become outputs so plans must save them.
    for d, ds in g.data.items():
        if not ds.is_input and not ds.is_output and not g.consumers.get(d):
            g.mark_output(d)
    g.validate()
    return g


def consumed_io(g: OperatorGraph) -> int:
    """I/O bound counting only inputs that are actually read (a random
    layer may never sample some input, which then never crosses the bus)."""
    return sum(
        ds.size
        for d, ds in g.data.items()
        if (ds.is_input and g.consumers.get(d)) or ds.is_output
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_layers=st.integers(1, 4),
    width=st.integers(1, 4),
    policy=st.sampled_from(["belady", "cost", "ltu", "lru", "fifo"]),
    eager=st.booleans(),
    slack=st.floats(1.0, 4.0),
)
def test_property_plans_always_valid_and_bracketed(
    seed, n_layers, width, policy, eager, slack
):
    g = layered_graph(seed, n_layers, width)
    cap = max(int(g.max_footprint() * slack), g.max_footprint())
    order = dfs_schedule(g)
    plan = schedule_transfers(g, order, cap, policy=policy, eager_free=eager)
    peak = validate_plan(plan, g, cap)
    assert peak <= cap
    volume = plan.transfer_floats(g)
    assert volume >= consumed_io(g)
    # The baseline moves every operator's I/O; a persistent-memory plan
    # with eager freeing never moves more.
    if eager:
        assert volume <= baseline_transfer_floats(g)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    policy=st.sampled_from(["belady", "cost", "ltu", "lru", "fifo"]),
)
def test_property_ample_memory_hits_io_bound(seed, policy):
    """With capacity >= total footprint every policy is I/O-optimal."""
    g = layered_graph(seed, 3, 3)
    plan = schedule_transfers(
        g, dfs_schedule(g), g.total_data_size() + 10, policy=policy
    )
    assert plan.transfer_floats(g) == consumed_io(g)


def test_belady_beats_fifo_in_aggregate():
    """Belady eviction wins over FIFO in aggregate, though not on every
    instance: greedy furthest-next-use ignores writeback (dirty-eviction)
    costs, which is exactly why the paper qualifies its optimality claim
    ("provided all the data structures are of the same size and are
    consumed exactly once").  We assert the aggregate advantage and that
    strict wins occur, and record that occasional losses are expected."""
    wins = losses = 0
    total_belady = total_fifo = 0
    for seed in range(60):
        g = layered_graph(seed, 3, 3)
        cap = g.max_footprint() + 4
        order = dfs_schedule(g)
        b = schedule_transfers(g, order, cap, policy="belady").transfer_floats(g)
        f = schedule_transfers(g, order, cap, policy="fifo").transfer_floats(g)
        total_belady += b
        total_fifo += f
        wins += b < f
        losses += b > f
    assert total_belady <= total_fifo
    assert wins > losses


def test_belady_optimal_under_paper_conditions():
    """Pure chains: uniform sizes, every value consumed exactly once —
    the conditions under which the paper claims optimality.  The Belady
    plan then meets the consumed-I/O bound exactly at any capacity that
    fits the largest operator."""
    for n in (3, 6, 10):
        g = OperatorGraph(f"chain{n}")
        g.add_data("in", (4, 2), is_input=True)
        prev = "in"
        for i in range(n):
            name = f"d{i}"
            g.add_data(name, (4, 2), is_output=(i == n - 1))
            g.add_operator(f"o{i}", "tanh", [prev], [name])
            prev = name
        for cap in (g.max_footprint(), g.max_footprint() * 2):
            plan = schedule_transfers(g, dfs_schedule(g), cap, policy="belady")
            assert plan.transfer_floats(g) == consumed_io(g)


def test_cost_policy_beats_belady_in_aggregate():
    """The writeback-aware refinement never loses in aggregate and wins
    strictly on instances where plain Belady evicts dirty intermediates
    over clean data (the counterexample family documented above)."""
    total_b = total_c = 0
    wins = losses = 0
    for seed in range(80):
        g = layered_graph(seed, 3, 3)
        cap = g.max_footprint() + 4
        order = dfs_schedule(g)
        b = schedule_transfers(g, order, cap, policy="belady").transfer_floats(g)
        c_plan = schedule_transfers(g, order, cap, policy="cost")
        validate_plan(c_plan, g, cap)
        c = c_plan.transfer_floats(g)
        total_b += b
        total_c += c
        wins += c < b
        losses += c > b
    assert total_c <= total_b
    assert wins >= losses
