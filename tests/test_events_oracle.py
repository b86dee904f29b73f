"""The event engine against its oracle, event for event.

:mod:`tests.reference_events` keeps the round-by-round loop that
rescans every pending transfer and every outstanding free each round.
:mod:`repro.runtime.events` issues the same events from per-event
dependency counters and per-engine ready heaps.  In every
configuration — per-direction or shared copy engines, out-of-order or
FIFO copy issue — both must fire the same events (index, stream, start,
finish, deps) in the same order, and an executed run must record the
same profile.  The inputs are the differential matrix's templates on a
tight and a roomy device plus seeded random graphs.
"""

import pytest

from repro.core import Framework
from repro.gpusim import XEON_WORKSTATION, GpuDevice
from repro.runtime import events as engine
from repro.runtime import execute_plan_events, simulate_plan_events
from repro.templates import (
    SMALL_CNN,
    cnn_graph,
    cnn_inputs,
    dog_pyramid_graph,
    dog_pyramid_inputs,
    find_edges_graph,
    find_edges_inputs,
)

from . import reference_events as reference
from .differential import random_inputs, random_operator_graph

KB = 1024

DEVICES = {
    "tight": GpuDevice(name="oracle-tight", memory_bytes=128 * KB),
    "roomy": GpuDevice(name="oracle-roomy", memory_bytes=2048 * KB),
    "rand": GpuDevice(name="oracle-rand", memory_bytes=16 * KB),
}

CASES = {
    "edge": lambda: (
        find_edges_graph(48, 40, 5, 4),
        find_edges_inputs(48, 40, 5, 4, seed=11),
    ),
    "dog": lambda: (dog_pyramid_graph(48, 48), dog_pyramid_inputs(48, 48, seed=11)),
    "cnn": lambda: (cnn_graph(SMALL_CNN, 48, 48), cnn_inputs(SMALL_CNN, 48, 48, seed=11)),
}

CONFIGS = [
    (copy_streams, in_order)
    for copy_streams in ("per-direction", "shared")
    for in_order in (False, True)
]

RUNS = [(name, device) for name in sorted(CASES) for device in ("tight", "roomy")]
RUNS += [(f"rand{seed}", "rand") for seed in range(6)]


def _case(name):
    if name.startswith("rand"):
        graph = random_operator_graph(int(name[4:]))
        return graph, random_inputs(graph, int(name[4:]))
    return CASES[name]()


@pytest.fixture(scope="module")
def compiled():
    """(compiled template, inputs) per run, compiled once."""
    out = {}
    for name, device in RUNS:
        graph, inputs = _case(name)
        fw = Framework(DEVICES[device], host=XEON_WORKSTATION)
        out[name, device] = (fw.compile(graph), inputs)
    return out


def _fired(timeline):
    return [(e.index, e.stream, e.start, e.finish, e.deps) for e in timeline.events]


@pytest.mark.parametrize("copy_streams,in_order", CONFIGS)
@pytest.mark.parametrize("name,device", RUNS)
def test_engine_equals_the_oracle(
    compiled, monkeypatch, name, device, copy_streams, in_order
):
    """Timing-only and executed runs fire the oracle's events, and an
    executed run records the oracle-driven run's profile and outputs."""
    c, inputs = compiled[name, device]
    args = (c.plan, c.graph, DEVICES[device])
    kwargs = dict(copy_streams=copy_streams, in_order_copy=in_order)
    simulated = simulate_plan_events(*args, XEON_WORKSTATION, **kwargs)
    executed = execute_plan_events(*args, inputs, XEON_WORKSTATION, **kwargs)
    monkeypatch.setattr(engine, "_build_event_graph", reference._build_event_graph)
    monkeypatch.setattr(engine, "_run_event_loop", reference._run_event_loop)
    want = execute_plan_events(*args, inputs, XEON_WORKSTATION, **kwargs)
    assert _fired(simulated) == _fired(want.timeline)
    assert _fired(executed.timeline) == _fired(want.timeline)
    totals = ("total_time", "copy_busy", "compute_busy", "sync_total_time")
    for timeline in (simulated, executed.timeline):
        assert [getattr(timeline, t) for t in totals] == [
            getattr(want.timeline, t) for t in totals
        ]
    assert executed.profile.events == want.profile.events
    assert executed.outputs.keys() == want.outputs.keys()
    for key, array in want.outputs.items():
        assert (executed.outputs[key] == array).all(), key
