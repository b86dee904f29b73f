"""One transfer scheduler for one to N devices, pinned against the oracle.

``repro.core.transfers.schedule_transfers`` plans a device group from an
op-id-indexed device column and per-device capacities.  The plain
dict-and-name planner in ``tests/reference_multi_planner.py`` is the
oracle: over random graphs × device counts × policies × transfer modes
× eager/lazy, and over a constantly evicting split edge template, both
must emit the same steps on the same devices under the same capacity,
with the same provenance reason classes.  One device is the N = 1 case:
an all-zero device column gives the device-less plan byte for byte.

The rest covers ``compile_multi``'s use of it: ``cost`` now plans a
group, a bug inside ``make_feasible`` is no longer retried away, and the
split graph is lowered once.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CompileOptions,
    InfeasibleTemplateError,
    plan_to_dict,
    schedule_transfers,
)
from repro.core.plan import validate_plan
from repro.core.scheduling import dfs_schedule
from repro.core.splitting import make_feasible
from repro.gpusim import GpuDevice, homogeneous_group
from repro.multigpu import compile_multi, partition_graph
from repro.obs import provenance_summary
from repro.templates import find_edges_graph

from . import reference_multi_planner as reference
from .test_multigpu_property import _replay, _schedule, _setup

KB = 1024
POLICIES = ["belady", "ltu", "lru", "fifo"]
DEV = GpuDevice(name="mt-dev", memory_bytes=256 * KB)


def assert_matches_oracle(graph, group, order, part, **kw) -> None:
    ref = reference.schedule_multi_transfers(graph, order, group, part, **kw)
    got = _schedule(graph, order, group, part, **kw)
    assert got.steps == ref.steps
    # A plan whose steps all run on device 0 carries no device column.
    assert [got.device_of(i) for i in range(len(got.steps))] == ref.devices
    assert got.capacity_floats == ref.capacity_floats
    assert provenance_summary(got) == provenance_summary(ref)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 4),
    policy=st.sampled_from(POLICIES),
    mode=st.sampled_from(["peer", "staged"]),
    eager=st.booleans(),
    headroom=st.floats(min_value=1.05, max_value=2.0),
)
def test_matches_oracle_on_random_graphs(seed, n, policy, mode, eager, headroom):
    graph, group, order, part = _setup(seed, n, headroom=headroom)
    assert_matches_oracle(
        graph, group, order, part,
        policy=policy, transfer_mode=mode, eager_free=eager,
    )


def _pressured_edge(n: int):
    """``TestBelady::test_under_heavy_pressure``'s split edge template."""
    graph = find_edges_graph(64, 64, 5, 4).copy()
    cap = graph.total_data_size() // 6
    make_feasible(graph, cap // 2)
    dev = GpuDevice(name="prop-dev", memory_bytes=64 * KB)
    dev = dev.with_memory(int(cap * 4 / dev.memory_reserve) + 4 * KB)
    group = homogeneous_group(dev, n)
    order = dfs_schedule(graph)
    return graph, group, order, partition_graph(graph, order, group)


@pytest.mark.parametrize("eager", [True, False], ids=["eager", "lazy"])
@pytest.mark.parametrize("mode", ["peer", "staged"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_matches_oracle_under_heavy_pressure(n, policy, mode, eager):
    graph, group, order, part = _pressured_edge(n)
    assert_matches_oracle(
        graph, group, order, part,
        policy=policy, transfer_mode=mode, eager_free=eager,
    )


@pytest.mark.parametrize("eager", [True, False], ids=["eager", "lazy"])
@pytest.mark.parametrize("policy", POLICIES + ["cost"])
def test_all_zero_device_column_is_the_device_less_plan(policy, eager):
    graph, group, order, _ = _pressured_edge(1)
    cap = group.usable_memory_floats[0]
    plain = schedule_transfers(graph, order, cap, policy=policy, eager_free=eager)
    tagged = schedule_transfers(
        graph, order, [cap], policy=policy, eager_free=eager,
        op_device=[0] * len(graph.ops),
    )
    assert json.dumps(plan_to_dict(tagged), sort_keys=True) == json.dumps(
        plan_to_dict(plain), sort_keys=True
    )
    assert tagged.notes == plain.notes and tagged.devices == []


def test_rejects_device_outside_the_group():
    graph, group, order, _ = _pressured_edge(2)
    with pytest.raises(ValueError, match="outside"):
        schedule_transfers(
            graph, order, group.usable_memory_floats,
            op_device=[2] * len(graph.ops),
        )


@pytest.mark.parametrize("mode", ["peer", "staged"])
def test_cost_policy_plans_a_group(mode):
    group = homogeneous_group(GpuDevice(name="cost-dev", memory_bytes=32 * KB), 2)
    compiled = compile_multi(
        find_edges_graph(128, 128, 5, 4), group,
        options=CompileOptions(eviction_policy="cost", split_headroom=1.0),
        transfer_mode=mode, plan_cache=False,
    )
    plan = compiled.plan
    assert "cost" in plan.label
    assert provenance_summary(plan)["evicted"] > 0  # the policy really ranked
    validate_plan(plan, compiled.graph, group.usable_memory_floats)
    _replay(plan, compiled.graph, 2)


def test_bug_inside_make_feasible_propagates(monkeypatch):
    """Only an infeasible finer split falls back to the capacity split."""
    import repro.multigpu.framework as mf

    real, calls = mf.make_feasible, []

    def broken(graph, cap):
        calls.append(cap)
        if len(calls) == 1:
            raise TypeError("bug inside make_feasible")
        return real(graph, cap)

    monkeypatch.setattr(mf, "make_feasible", broken)
    with pytest.raises(TypeError, match="bug inside"):
        compile_multi(
            find_edges_graph(64, 64, 5, 4), homogeneous_group(DEV, 2),
            plan_cache=False,
        )


def test_infeasible_finer_split_falls_back(monkeypatch):
    import repro.multigpu.framework as mf

    real, calls = mf.make_feasible, []

    def finer_infeasible(graph, cap):
        calls.append(cap)
        if len(calls) == 1:
            raise InfeasibleTemplateError("halo floor")
        return real(graph, cap)

    monkeypatch.setattr(mf, "make_feasible", finer_infeasible)
    group = homogeneous_group(DEV, 2)
    compiled = compile_multi(
        find_edges_graph(64, 64, 5, 4), group, plan_cache=False
    )
    assert calls[1] == min(group.usable_memory_floats) > calls[0]
    validate_plan(compiled.plan, compiled.graph, group.usable_memory_floats)


def test_group_compile_lowers_once():
    graph = find_edges_graph(64, 64, 5, 4)
    group = homogeneous_group(DEV, 2)
    compiled = compile_multi(graph, group, plan_cache=False)
    assert [sp.name for sp in compiled.spans].count("lowering") == 1
    order = dfs_schedule(compiled.graph)
    assert compiled.op_order == order
    part = partition_graph(compiled.graph, order, group)
    ref = reference.schedule_multi_transfers(compiled.graph, order, group, part)
    assert compiled.plan.steps == ref.steps
    assert compiled.plan.devices == ref.devices
    assert compiled.plan.label == ref.label
