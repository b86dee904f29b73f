"""Differential tests: every executor must match the reference bitwise.

Drives tests/differential.py across (template x device x planner x
executor) and across seeded random operator graphs.  See
docs/TESTING.md for the rationale: all executors share the numpy
operator library, so equality is exact, and any mismatch localises the
bug to plan interpretation rather than numerics.
"""

import numpy as np
import pytest

from repro.gpusim import GpuDevice
from repro.runtime import reference_execute
from repro.templates import (
    SMALL_CNN,
    cnn_graph,
    cnn_inputs,
    find_edges_graph,
    find_edges_inputs,
)

from .differential import (
    EXECUTORS,
    PLANNERS,
    assert_bitwise_equal,
    assert_engine_matches_reference,
    differential_check,
    random_inputs,
    random_operator_graph,
)

KB = 1024

DEVICES = {
    "tight": GpuDevice(name="diff-tight", memory_bytes=128 * KB),
    "roomy": GpuDevice(name="diff-roomy", memory_bytes=2048 * KB),
}


def _edge_case():
    g = find_edges_graph(48, 40, 5, 4)
    return g, find_edges_inputs(48, 40, 5, 4, seed=11)


def _cnn_case():
    g = cnn_graph(SMALL_CNN, 48, 48)
    return g, cnn_inputs(SMALL_CNN, 48, 48, seed=11)


TEMPLATES = {"edge": _edge_case, "cnn": _cnn_case}


@pytest.fixture(scope="module")
def cases():
    out = {}
    for name, make in TEMPLATES.items():
        graph, inputs = make()
        out[name] = (graph, inputs, reference_execute(graph.copy(), inputs))
    return out


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@pytest.mark.parametrize("planner", sorted(PLANNERS))
@pytest.mark.parametrize("device", sorted(DEVICES))
@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_matrix(cases, template, device, planner, executor):
    """Every (template, device, planner, executor) combo is bit-exact."""
    graph, inputs, reference = cases[template]
    runner = EXECUTORS[executor]
    got = runner(graph.copy(), inputs, DEVICES[device], PLANNERS[planner])
    assert_bitwise_equal(reference, got, f"{template}/{device}/{planner}/{executor}")


@pytest.mark.parametrize("seed", range(6))
def test_random_graphs(seed):
    """Seeded random operator DAGs agree across all executors."""
    graph = random_operator_graph(seed)
    inputs = random_inputs(graph, seed)
    # Tight enough to force splitting and eviction on most draws.
    device = GpuDevice(name="diff-rand", memory_bytes=16 * KB)
    differential_check(graph, inputs, device, PLANNERS["default"])


@pytest.mark.parametrize("seed", [7, 8])
def test_random_graphs_alt_planner(seed):
    """Random graphs stay exact under the non-default planner too."""
    graph = random_operator_graph(seed, n_layers=4, width=2)
    inputs = random_inputs(graph, seed)
    device = GpuDevice(name="diff-rand", memory_bytes=16 * KB)
    differential_check(graph, inputs, device, PLANNERS["bfs-lru"])


# ---------------------------------------------------------------------------
# Planner engine vs tests/reference_planner.py
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_columnar_equivalent_templates(template):
    """The planner matches the reference byte for byte on real templates."""
    graph, _ = TEMPLATES[template]()
    assert_engine_matches_reference(graph)


def test_columnar_equivalent_split_graph():
    """Byte identity holds on a graph after operator splitting too."""
    from repro.core import make_feasible

    graph = find_edges_graph(96, 64, 5, 4)
    make_feasible(graph, 8 * KB // 4)
    assert_engine_matches_reference(graph)


def test_columnar_property_random_graphs():
    """Hypothesis: the engine and the reference plan byte-identically.

    Random layered DAGs (drawn through the same seeded generator the
    executor matrix uses) must plan identically through ``repro.core``
    and the dict-based oracle, across every DFS scheduler and policy.
    """
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @hypothesis.given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_layers=st.integers(min_value=1, max_value=5),
        width=st.integers(min_value=1, max_value=4),
    )
    @hypothesis.settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[hypothesis.HealthCheck.too_slow],
    )
    def check(seed, n_layers, width):
        graph = random_operator_graph(seed, n_layers=n_layers, width=width)
        assert_engine_matches_reference(graph)

    check()


def test_reference_is_deterministic():
    """Same seed, same graph: the harness itself must be reproducible."""
    g1, g2 = random_operator_graph(3), random_operator_graph(3)
    i1, i2 = random_inputs(g1, 3), random_inputs(g2, 3)
    r1 = reference_execute(g1, i1)
    r2 = reference_execute(g2, i2)
    for name in r1:
        assert np.array_equal(r1[name], r2[name])
