"""The residency machine is the one check every plan walker runs.

:mod:`repro.core.walk` checks each step before any walker sees it, so a
bad plan fails the same way whichever entry point runs it: the
validator, the analytic and numeric synchronous walkers, the event
engine, and both multi-device entries.  The property mutates valid
compiled plans (drop, duplicate or swap steps, or move a step to the
other device of a 2-device plan) and requires every entry point to
succeed, or every one to raise the same :class:`PlanError`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompileOptions, Framework
from repro.core.plan import ExecutionPlan, PlanError, validate_plan
from repro.gpusim import XEON_WORKSTATION, DeviceGroup, GpuDevice, SimRuntime
from repro.multigpu import (
    MultiSimRuntime,
    compile_multi,
    execute_multi_plan,
    simulate_multi_plan,
)
from repro.runtime import (
    execute_plan,
    execute_plan_events,
    simulate_plan,
    simulate_plan_events,
)
from repro.templates import find_edges_graph, find_edges_inputs

KB = 1024
HOST = XEON_WORKSTATION
OPTIONS = CompileOptions(split_headroom=1.0)  # plan capacity == device capacity
SMALL = GpuDevice(name="walk-8k", memory_bytes=8 * KB)
TIGHT = GpuDevice(name="walk-12k", memory_bytes=12 * KB)
BIG = GpuDevice(name="walk-24k", memory_bytes=24 * KB)
#: heterogeneous pair: the plan records min(caps), device 1 peaks above it
PAIR = DeviceGroup((TIGHT, BIG))
PAIR_SHAPE = (48, 40, 3, 2)


def _single(device, shape):
    compiled = Framework(device, host=HOST, options=OPTIONS).compile(
        find_edges_graph(*shape)
    )
    assert compiled.plan.capacity_floats == device.usable_memory_floats
    return compiled, device, find_edges_inputs(*shape, seed=5)


def _pair():
    compiled = compile_multi(
        find_edges_graph(*PAIR_SHAPE), PAIR, host=HOST, options=OPTIONS,
        transfer_mode="peer",
    )
    return compiled, PAIR, find_edges_inputs(*PAIR_SHAPE, seed=5)


CASES = {
    "edge-8k": lambda: _single(SMALL, (32, 24, 3, 2)),
    "edge-12k": lambda: _single(TIGHT, PAIR_SHAPE),
    "edge-12k+24k": _pair,
}
_compiled: dict = {}


def _case(name):
    if name not in _compiled:
        _compiled[name] = CASES[name]()
    return _compiled[name]


def _entry_points(plan, graph, device, inputs):
    """Every entry point that walks a plan, by name."""
    if isinstance(device, DeviceGroup):
        group, caps = device, device.usable_memory_floats
        single = {}
    else:
        group, caps = DeviceGroup((device,)), plan.capacity_floats
        single = {
            "simulate_plan": lambda: simulate_plan(plan, graph, device, HOST),
            "execute_plan": lambda: execute_plan(
                plan, graph, SimRuntime(device, HOST), inputs
            ),
            "simulate_plan_events": lambda: simulate_plan_events(
                plan, graph, device, HOST
            ),
            "execute_plan_events": lambda: execute_plan_events(
                plan, graph, device, inputs, HOST
            ),
        }
    return {
        "validate_plan": lambda: validate_plan(plan, graph, caps),
        **single,
        "simulate_multi_plan": lambda: simulate_multi_plan(plan, graph, group, HOST),
        "execute_multi_plan": lambda: execute_multi_plan(
            plan, graph, MultiSimRuntime(group, HOST), inputs
        ),
    }


def _outcome(run):
    try:
        run()
    except PlanError as exc:
        return f"PlanError: {exc}"
    except Exception as exc:  # any other failure is a finding too
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def _mutate(plan: ExecutionPlan, kind: str, k: int) -> ExecutionPlan:
    steps, devices = list(plan.steps), list(plan.devices)
    k %= len(steps)
    if kind == "drop":
        del steps[k]
        del devices[k: k + 1]
    elif kind == "duplicate":
        steps.insert(k, steps[k])
        devices[k:k] = devices[k: k + 1]
    elif kind == "swap":
        k = min(k, len(steps) - 2)
        steps[k], steps[k + 1] = steps[k + 1], steps[k]
        devices[k: k + 2] = devices[k: k + 2][::-1]
    else:  # move to the other device
        devices[k] = 1 - devices[k]
    return ExecutionPlan(
        steps=steps, capacity_floats=plan.capacity_floats, devices=devices
    )


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(sorted(CASES)),
    kind=st.sampled_from(["drop", "duplicate", "swap", "move"]),
    k=st.integers(min_value=0, max_value=10_000),
)
def test_every_entry_point_agrees_on_a_mutated_plan(name, kind, k):
    compiled, device, inputs = _case(name)
    if kind == "move" and not compiled.plan.devices:
        kind = "swap"
    mutant = _mutate(compiled.plan, kind, k)
    outcomes = {
        entry: _outcome(run)
        for entry, run in _entry_points(mutant, compiled.graph, device, inputs).items()
    }
    assert len(set(outcomes.values())) == 1, outcomes
    assert next(iter(outcomes.values())).startswith(("ok", "PlanError: ")), outcomes


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_entry_point_runs_the_compiled_plan(name):
    compiled, device, inputs = _case(name)
    entries = _entry_points(compiled.plan, compiled.graph, device, inputs)
    assert {entry: _outcome(run) for entry, run in entries.items()} == dict.fromkeys(
        entries, "ok"
    )


def test_a_heterogeneous_group_checks_each_device_against_its_own_capacity():
    """The plan records ``min(caps)``; device 1 peaks above that, within
    its own capacity, as ``compile_multi`` planned it."""
    compiled, group, inputs = _pair()
    plan, graph = compiled.plan, compiled.graph
    caps = group.usable_memory_floats
    assert plan.capacity_floats == min(caps) < caps[1]
    run = simulate_multi_plan(plan, graph, group, HOST)
    assert min(caps) < run.peak_device_floats[1] <= caps[1]
    assert max(run.peak_device_floats) == validate_plan(plan, graph, caps)
    execute_multi_plan(plan, graph, MultiSimRuntime(group, HOST), inputs)
    with pytest.raises(PlanError, match=r"^step \d+: device 1 memory \d+ floats exceeds capacity"):
        validate_plan(plan, graph)  # every device against the recorded min
