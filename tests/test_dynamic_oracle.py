"""The dynamic executor against its former step loop.

``repro.runtime.dynamic`` records the run-time library's online
decisions as a plan (``repro.core.online_plan``) and runs it on the
synchronous walker; ``tests/reference_dynamic.py`` is the loop that used
to issue those decisions to the runtime directly.  In every cell of the
(template x device x host x operator order) matrix the two must agree
bit for bit on outputs and event for event on the simulated timeline,
and the online plan must be one that ``validate_plan`` accepts and
``simulate_plan`` accounts identically.
"""

import numpy as np
import pytest

from repro.core import Framework, validate_plan
from repro.gpusim import XEON_WORKSTATION, GpuDevice, SimRuntime
from repro.runtime import dynamic, dynamic_execute, execute_plan, simulate_plan
from repro.templates import (
    SMALL_CNN,
    cnn_graph,
    cnn_inputs,
    dog_pyramid_graph,
    dog_pyramid_inputs,
    find_edges_graph,
    find_edges_inputs,
)

from . import reference_dynamic

TEMPLATES = {
    "edge-48x40": (
        lambda: find_edges_graph(48, 40, 5, 4),
        lambda: find_edges_inputs(48, 40, 5, 4, seed=5),
    ),
    "cnn-48": (
        lambda: cnn_graph(SMALL_CNN, 48, 48),
        lambda: cnn_inputs(SMALL_CNN, 48, 48, seed=3),
    ),
    "dog-64": (
        lambda: dog_pyramid_graph(64, 64),
        lambda: dog_pyramid_inputs(64, 64, seed=7),
    ),
}
MEMORIES_KB = (20, 32, 64, 256)
HOSTS = {"no-host": None, "xeon": XEON_WORKSTATION}
ORDERS = ("compiled", "topological")


@pytest.fixture(scope="module")
def compiled_case():
    """(template, device KB) -> (device, compiled, inputs), compiled once."""
    cases = {}

    def get(template: str, mem_kb: int):
        if (template, mem_kb) not in cases:
            make_graph, make_inputs = TEMPLATES[template]
            device = GpuDevice(name=f"dev-{mem_kb}k", memory_bytes=mem_kb * 1024)
            compiled = Framework(device).compile(make_graph())
            cases[template, mem_kb] = device, compiled, make_inputs()
        return cases[template, mem_kb]

    return get


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("host", list(HOSTS))
@pytest.mark.parametrize("mem_kb", MEMORIES_KB)
@pytest.mark.parametrize("template", list(TEMPLATES))
def test_matches_the_former_step_loop(
    monkeypatch, compiled_case, template, mem_kb, host, order
):
    device, compiled, inputs = compiled_case(template, mem_kb)
    graph, host_system = compiled.graph, HOSTS[host]
    op_order = compiled.op_order if order == "compiled" else None
    ran = []  # the plan the executor ran; its walk checked it

    def spy(plan, *args):
        ran.append(plan)
        return execute_plan(plan, *args)

    monkeypatch.setattr(dynamic, "execute_plan", spy)
    old_rt = SimRuntime(device, host_system)
    old = reference_dynamic.dynamic_execute(graph, old_rt, inputs, op_order)
    new_rt = SimRuntime(device, host_system)
    new = dynamic_execute(graph, new_rt, inputs, op_order)

    assert new.outputs.keys() == old.outputs.keys()
    for name, array in old.outputs.items():
        np.testing.assert_array_equal(new.outputs[name], array)
    for field in (
        "h2d_floats", "d2h_floats", "elapsed", "transfer_time",
        "compute_time", "thrashed",
    ):
        assert getattr(new, field) == getattr(old, field), field
    assert new_rt.profile.events == old_rt.profile.events

    (plan,) = ran
    validate_plan(plan, graph)
    sim = simulate_plan(plan, graph, device, host_system)
    assert sim.transfer_floats == new.transfer_floats
