"""Plan-then-build splitting, pinned to the object-surgery oracle.

:func:`repro.core.make_feasible` plans every cut on integer row
boundaries and builds each chunk and part once.  The implementation it
replaced, which split by graph surgery, lives on in
``tests/reference_splitting.py``.  On every case below both run on
copies of one template and must agree on:

* ``graph_to_dict``, byte for byte (names, ``fresh_name`` suffixes,
  data and operator order, slot / out-spec chunks, params key order);
* ``producer``, ``consumers`` and ``children``, order included —
  consumer order feeds the scheduler;
* the ``SplitReport``, dict order included;
* for an infeasible case, the exception type and message.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import OperatorGraph, graph_to_dict, make_feasible
from repro.gpusim import GpuDevice
from repro.templates import SMALL_CNN, cnn_graph, dog_pyramid_graph, find_edges_graph

from . import reference_splitting as reference

FAST = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def outcome(split, graph: OperatorGraph, capacity: int):
    """Everything a split decides, in a form that compares with ``==``."""
    try:
        report = split(graph, capacity)
    except Exception as exc:  # the oracle's error is part of the contract
        return ("raised", type(exc), str(exc))
    return (
        json.dumps(graph_to_dict(graph)),
        list(graph.producer.items()),
        [(d, list(c)) for d, c in graph.consumers.items()],
        [(r, list(c)) for r, c in graph.children.items()],
        report.rounds,
        list(report.split_ops.items()),
        list(report.partitioned_roots.items()),
    )


def assert_same_split(build, capacity: int, presplit: int | None = None) -> None:
    """Split two copies of ``build()``, one with each implementation.

    ``presplit`` first splits the template at a larger capacity (with the
    oracle), so the pinned split re-splits parts, chunks and partials.
    """
    template = build()
    if presplit is not None:
        try:
            reference.make_feasible(template, presplit)
        except reference.InfeasibleTemplateError:
            return  # nothing to re-split
    want = outcome(reference.make_feasible, template.copy(), capacity)
    got = outcome(make_feasible, template.copy(), capacity)
    assert got == want


def capacity_at(build, frac: float) -> int:
    return max(1, int(build().max_footprint() * frac))


def reduction_graph(fn: str, rows: int = 240, cols: int = 6) -> OperatorGraph:
    """Two elementwise branches, an ``absmax`` combine and a reduction."""
    g = OperatorGraph(f"reduce_{fn}")
    g.add_data("X", (rows, cols), is_input=True)
    for name in ("T", "U", "M"):
        g.add_data(name, (rows, cols))
    g.add_data("S", (1, cols), is_output=True)
    g.add_operator("t", "tanh", ["X"], ["T"])
    g.add_operator("u", "remap", ["X"], ["U"], gain=0.5)
    g.add_operator("m", "absmax", ["T", "U"], ["M"])
    g.add_operator("r", "reduce", ["M"], ["S"], fn=fn)
    return g


def shared_input_graph(rows: int, cols: int) -> OperatorGraph:
    """Operators reading one array through two slots (duplicate inputs,
    of a produced and of a template array) and a consumer of both an
    operator's input and its output (kept chunks)."""
    g = OperatorGraph("shared")
    g.add_data("X", (rows, cols), is_input=True)
    for name in ("T", "D", "E"):
        g.add_data(name, (rows, cols))
    g.add_data("Y", (rows, cols), is_output=True)
    g.add_operator("t", "tanh", ["X"], ["T"])
    g.add_operator("e", "add", ["X", "X"], ["E"])
    g.add_operator("d", "add", ["T", "T"], ["D"])
    g.add_operator("y", "max", ["T", "D", "E"], ["Y"])
    return g


FRACS = [0.04, 0.12, 0.3, 0.6]


@pytest.mark.parametrize("frac", FRACS)
@pytest.mark.parametrize("o", [1, 2, 4])
@pytest.mark.parametrize("k", [3, 5, 8])
def test_edge(k, o, frac):
    def build():
        return find_edges_graph(36, 28, k, o)

    assert_same_split(build, capacity_at(build, frac))


@FAST
@given(
    h=st.integers(12, 72),
    w=st.integers(8, 72),
    k=st.sampled_from([3, 5, 8]),
    o=st.sampled_from([1, 2, 4]),
    combine=st.sampled_from(["max", "add", "absmax"]),
    frac=st.floats(0.01, 1.2),
)
def test_edge_property(h, w, k, o, combine, frac):
    def build():
        return find_edges_graph(h, w, k, o, combine_op=combine)

    assert_same_split(build, capacity_at(build, frac))


@pytest.mark.parametrize("frac", FRACS)
@pytest.mark.parametrize("side,octaves", [(40, 1), (40, 2), (64, 2), (48, 3)])
def test_dog_pyramid(side, octaves, frac):
    def build():
        return dog_pyramid_graph(side, side, octaves, 5)

    assert_same_split(build, capacity_at(build, frac))


@pytest.mark.parametrize("frac", [0.3, 0.05])
def test_small_cnn(frac):
    def build():
        return cnn_graph(SMALL_CNN, 44, 48)

    assert_same_split(build, capacity_at(build, frac))


@pytest.mark.parametrize("fn", ["sum", "mean", "max"])
@pytest.mark.parametrize(
    "capacity",
    [6 * 80, 6 * 30, 6 * 12, 6 * 5, 6 * 3, 6 * 2],
    ids=["flat", "flat-fine", "tree", "deep-tree", "pairwise", "infeasible"],
)
def test_reduction(fn, capacity):
    assert_same_split(lambda: reduction_graph(fn), capacity)


@pytest.mark.parametrize("frac", [0.1, 0.25, 0.5, 0.8])
@pytest.mark.parametrize("rows,cols", [(7, 3), (40, 6), (57, 2)])
def test_shared_input(rows, cols, frac):
    def build():
        return shared_input_graph(rows, cols)

    assert_same_split(build, capacity_at(build, frac))


def colliding_names_graph() -> OperatorGraph:
    """Arrays and operators already named like the chunks and parts a
    split creates, so names go through ``fresh_name``'s suffixes."""
    g = OperatorGraph("collide")
    g.add_data("X", (24, 4), is_input=True)
    g.add_data("X[0:12]", (2, 4), is_input=True)
    for name in ("Y", "W"):
        g.add_data(name, (24, 4))
    g.add_data("Z", (24, 4), is_output=True)
    g.add_data("t.p0", (2, 4), is_output=True)
    g.add_operator("t", "tanh", ["X"], ["Y"])
    g.add_operator("Y[0:12]", "remap", ["Y"], ["W"])
    g.add_operator("u", "max", ["W", "X"], ["Z"])
    g.add_operator("w", "remap", ["X[0:12]"], ["t.p0"])
    return g


@pytest.mark.parametrize("capacity", [120, 60, 30])
def test_colliding_names(capacity):
    assert_same_split(colliding_names_graph, capacity)


RESPLIT = {
    "edge": lambda: find_edges_graph(48, 40, 5, 4),
    "dog": lambda: dog_pyramid_graph(48, 48, 2, 5),
    "reduce": lambda: reduction_graph("mean"),
    "shared": lambda: shared_input_graph(40, 6),
}


@pytest.mark.parametrize("first,second", [(0.5, 0.5), (0.3, 0.4), (0.2, 0.7)])
@pytest.mark.parametrize("template", sorted(RESPLIT))
def test_resplit(template, first, second):
    """Split again at a smaller capacity: parts, chunks and partials of an
    earlier split are the template."""
    build = RESPLIT[template]
    cap = capacity_at(build, first)
    assert_same_split(build, max(1, int(cap * second)), presplit=cap)


def test_edge_2048_at_256kb():
    """The benchmark's tier case: 2048² edge detection on a 256 KB device."""
    capacity = GpuDevice(name="256k", memory_bytes=256 * 1024).usable_memory_floats
    assert_same_split(lambda: find_edges_graph(2048, 2048, 5, 4), capacity)
