"""Tests for the operator-graph IR."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DataStructure,
    GraphError,
    Operator,
    OperatorGraph,
    OutSpec,
    Slot,
    op_out_specs,
    op_slots,
    output_size,
    slot_size,
)


def diamond():
    """Img -> (A, B) -> C, the smallest interesting DAG."""
    g = OperatorGraph("diamond")
    g.add_data("Img", (4, 4), is_input=True)
    g.add_data("X", (4, 4))
    g.add_data("Y", (4, 4))
    g.add_data("Out", (4, 4), is_output=True)
    g.add_operator("A", "remap", ["Img"], ["X"])
    g.add_operator("B", "remap", ["Img"], ["Y"])
    g.add_operator("C", "max", ["X", "Y"], ["Out"])
    return g


class TestDataStructure:
    def test_size_and_rows(self):
        ds = DataStructure("a", (3, 5))
        assert ds.size == 15
        assert ds.rows == 3

    def test_scalar_shape(self):
        ds = DataStructure("b", ())
        assert ds.size == 1
        assert ds.rows == 1

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            DataStructure("c", (-1, 2))


class TestOperator:
    def test_requires_outputs(self):
        with pytest.raises(ValueError):
            Operator("o", "remap", ("a",), ())

    def test_touched_deduplicates(self):
        op = Operator("o", "add", ("a", "b", "a"), ("c",))
        assert op.touched() == ("a", "b", "c")


class TestConstruction:
    def test_duplicate_data_rejected(self):
        g = OperatorGraph()
        g.add_data("a", (1, 1))
        with pytest.raises(GraphError):
            g.add_data("a", (2, 2))

    def test_duplicate_operator_rejected(self):
        g = diamond()
        with pytest.raises(GraphError):
            g.add_operator("A", "remap", ["Img"], ["X"])

    def test_unknown_input_rejected(self):
        g = OperatorGraph()
        g.add_data("out", (1, 1))
        with pytest.raises(GraphError):
            g.add_operator("o", "remap", ["nope"], ["out"])

    def test_double_producer_rejected(self):
        g = OperatorGraph()
        g.add_data("a", (1, 1), is_input=True)
        g.add_data("b", (1, 1))
        g.add_operator("p1", "remap", ["a"], ["b"])
        with pytest.raises(GraphError):
            g.add_operator("p2", "remap", ["a"], ["b"])

    def test_template_input_cannot_be_output(self):
        g = OperatorGraph()
        g.add_data("a", (1, 1), is_input=True)
        g.add_data("b", (1, 1), is_input=True)
        with pytest.raises(GraphError):
            g.add_operator("o", "remap", ["a"], ["b"])


class TestDependencies:
    def test_predecessors_successors(self):
        g = diamond()
        assert g.op_predecessors("C") == ["A", "B"]
        assert g.op_successors("A") == ["C"]
        assert g.op_predecessors("A") == []

    def test_roots_leaves(self):
        g = diamond()
        assert g.roots() == ["A", "B"]
        assert g.leaves() == ["C"]

    def test_template_io(self):
        g = diamond()
        assert g.template_inputs() == ["Img"]
        assert g.template_outputs() == ["Out"]

    def test_topological_order(self):
        g = diamond()
        order = g.topological_order()
        assert order.index("A") < order.index("C")
        assert order.index("B") < order.index("C")

    def test_cycle_detected(self):
        g = OperatorGraph()
        g.add_data("a", (1, 1), is_input=True)
        g.add_data("b", (1, 1))
        g.add_data("c", (1, 1))
        g.add_operator("p", "add", ["a", "c"], ["b"])
        g.add_operator("q", "remap", ["b"], ["c"])
        with pytest.raises(GraphError):
            g.topological_order()


class TestValidate:
    def test_valid_graph(self):
        diamond().validate()

    def test_orphan_rejected(self):
        g = diamond()
        g.add_data("stray", (2, 2))
        with pytest.raises(GraphError, match="orphan"):
            g.validate()

    def test_consumed_but_never_produced(self):
        g = OperatorGraph()
        g.add_data("a", (1, 1))  # not an input!
        g.add_data("b", (1, 1))
        g.add_operator("o", "remap", ["a"], ["b"])
        with pytest.raises(GraphError):
            g.validate()

    def test_chunk_without_range_rejected(self):
        g = diamond()
        g.data["X"].parent = "Img"
        with pytest.raises(GraphError):
            g.validate()

    def test_virtual_must_be_unwired(self):
        g = diamond()
        g.data["X"].virtual = True
        with pytest.raises(GraphError, match="virtual"):
            g.validate()


class TestFootprints:
    def test_op_footprint(self):
        g = diamond()
        assert g.op_footprint("A") == 32  # Img + X
        assert g.op_footprint("C") == 48  # X + Y + Out

    def test_max_footprint(self):
        assert diamond().max_footprint() == 48

    def test_total_and_io(self):
        g = diamond()
        assert g.total_data_size() == 64
        assert g.io_size() == 32

    def test_virtual_excluded(self):
        g = diamond()
        g.add_data("V", (100, 100), virtual=True)
        assert g.total_data_size() == 64

    def test_stats_keys(self):
        s = diamond().stats()
        assert s["operators"] == 3
        assert s["io_floats"] == 32


class TestChildren:
    def test_children_index(self):
        g = OperatorGraph()
        g.add_data("root", (4, 2), virtual=True)
        g.add_data("c1", (2, 2), parent="root", row_range=(0, 2))
        g.add_data("c2", (2, 2), parent="root", row_range=(2, 4))
        assert g.children["root"] == ["c1", "c2"]


class TestFreeze:
    """Append-only until ``freeze()``, read-only after; ``copy()`` is the
    edit path."""

    MUTATORS = {
        "add_data": lambda g: g.add_data("Z", (4, 4)),
        "add_operator": lambda g: g.add_operator("D", "remap", ["X"], ["Y"]),
        "mark_output": lambda g: g.mark_output("X"),
    }

    @pytest.mark.parametrize("mutate", MUTATORS.values(), ids=MUTATORS)
    def test_frozen_graph_refuses_every_mutator(self, mutate):
        g = diamond().freeze()
        before = (list(g.data), list(g.ops), dict(g.producer),
                  {d: list(c) for d, c in g.consumers.items()},
                  g.data["X"].is_output)
        with pytest.raises(GraphError, match="frozen"):
            mutate(g)
        assert before == (list(g.data), list(g.ops), dict(g.producer),
                          {d: list(c) for d, c in g.consumers.items()},
                          g.data["X"].is_output)

    def test_name_is_read_only(self):
        g = diamond()
        with pytest.raises(AttributeError):
            g.name = "other"
        assert g.copy("other").name == "other"

    def test_freeze_returns_the_graph_and_copy_thaws(self):
        g = diamond()
        assert not g.frozen
        assert g.freeze() is g and g.frozen
        h = g.copy()
        assert not h.frozen
        h.add_data("Z", (4, 4))
        assert "Z" not in g.data

    def test_mutator_drops_the_memos_before_freezing(self):
        g = diamond()
        g.add_data("V", (4, 4), virtual=True)
        g.add_data("V0", (4, 4), parent="V", row_range=(0, 4))
        assert g.op_successors("A") == ["C"]
        assert g.sorted_chunks("V")[0] == ["V0"]
        g.add_data("X2", (4, 4))
        g.add_operator("E", "remap", ["X"], ["X2"])
        assert g.op_successors("A") == ["C", "E"]
        g.add_data("V1", (4, 4), parent="V", row_range=(4, 8))
        assert g.sorted_chunks("V")[0] == ["V0", "V1"]

    def test_pickle_carries_the_flag(self):
        import pickle

        assert pickle.loads(pickle.dumps(diamond().freeze())).frozen
        assert not pickle.loads(pickle.dumps(diamond())).frozen


class TestCopy:
    def test_copy_is_deep(self):
        g = diamond()
        h = g.copy()
        h.add_data("Z", (4, 4))
        assert "Z" not in g.data
        h.data["X"].shape = (9, 9)
        assert g.data["X"].shape == (4, 4)

    def test_copy_preserves_params(self):
        g = diamond()
        g.ops["A"].params["slots"] = [Slot("Img", None, ["Img"])]
        h = g.copy()
        h.ops["A"].params["slots"][0].chunks.append("zzz")
        assert g.ops["A"].params["slots"][0].chunks == ["Img"]


class _Opaque:
    """A param type the structural clone knows nothing about."""

    def __init__(self, items):
        self.items = items


class TestCloneParams:
    """``copy()`` is a structural clone: every mutable container reachable
    from ``op.params`` is independent, immutable values are shared."""

    PARAMS = {
        "gain": 1.5,
        "mode": "same",
        "flag": True,
        "nothing": None,
        "out_range": (0, 4),
        "nested": ((0, 1), (2, (3, 4))),
        "weights": [0.25, 0.75],
        "table": {"rows": [1, 2], "tag": "t"},
        "mixed": ([1, 2], (3, 4)),
        "slots": [Slot("Img", (0, 4), ["Img"])],
        "out_specs": [OutSpec("X", (0, 4), [("X", (0, 4))])],
        "opaque": _Opaque([1, 2]),
    }

    def cloned(self):
        g = diamond()
        g.ops["A"].params.update(self.PARAMS)
        return g.ops["A"].params, g.copy().ops["A"].params

    def test_values_equal(self):
        src, dst = self.cloned()
        assert dst is not src
        assert list(dst) == list(src)
        for key in src:
            if key != "opaque":
                assert dst[key] == src[key], key
        assert dst["opaque"].items == [1, 2]

    def test_immutable_values_shared(self):
        src, dst = self.cloned()
        for key in ("mode", "out_range", "nested"):
            assert dst[key] is src[key], key
        assert dst["slots"][0].rows is src["slots"][0].rows

    def test_containers_independent(self):
        src, dst = self.cloned()
        dst["weights"].append(9.0)
        dst["table"]["rows"].append(3)
        dst["table"]["tag"] = "changed"
        dst["mixed"][0].append(3)
        dst["slots"][0].chunks.append("zzz")
        dst["slots"].append(Slot("Y", None, ["Y"]))
        dst["out_specs"][0].chunks.append(("zzz", (4, 5)))
        dst["out_specs"][0].rng = (0, 5)
        assert src["weights"] == [0.25, 0.75]
        assert src["table"] == {"rows": [1, 2], "tag": "t"}
        assert src["mixed"] == ([1, 2], (3, 4))
        assert src["slots"] == [Slot("Img", (0, 4), ["Img"])]
        assert src["out_specs"] == [OutSpec("X", (0, 4), [("X", (0, 4))])]

    def test_unknown_type_is_deep_copied(self):
        src, dst = self.cloned()
        assert dst["opaque"] is not src["opaque"]
        dst["opaque"].items.append(3)
        assert src["opaque"].items == [1, 2]

    def test_data_structures_and_indexes_independent(self):
        g = diamond()
        h = g.copy()
        h.data["X"].virtual = True
        h.consumers["Img"].remove("A")
        h.add_data("X[0:2]", (2, 4), parent="X", row_range=(0, 2))
        assert not g.data["X"].virtual
        assert g.consumers["Img"] == ["A", "B"]
        assert "X" not in g.children
        assert h.data["Out"] == g.data["Out"]
        assert list(h.data) == list(g.data) + ["X[0:2]"]


class TestSlotHelpers:
    def test_default_slots(self):
        g = diamond()
        slots = op_slots(g.ops["C"], g)
        assert [s.root for s in slots] == ["X", "Y"]
        assert all(s.rows is None for s in slots)

    def test_default_out_specs(self):
        g = diamond()
        specs = op_out_specs(g.ops["C"], g)
        assert specs[0].root == "Out"
        assert specs[0].rng == (0, 4)
        assert specs[0].chunks == [("Out", (0, 4))]

    def test_slot_size_full_and_ranged(self):
        g = diamond()
        assert slot_size(g.ops["A"], g, 0) == 16
        g.ops["A"].params["slots"] = [Slot("Img", (1, 3), ["Img"])]
        assert slot_size(g.ops["A"], g, 0) == 8

    def test_output_size(self):
        g = diamond()
        assert output_size(g.ops["C"], g) == 16

    def test_fresh_name(self):
        g = diamond()
        assert g.fresh_name("new") == "new"
        assert g.fresh_name("Img") == "Img#1"
        g.add_data("Img#1", (1, 1), is_input=True)
        assert g.fresh_name("Img") == "Img#2"


@settings(max_examples=60, deadline=None)
@given(
    n_layers=st.integers(1, 5),
    width=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_random_layered_graphs_are_valid(n_layers, width, seed):
    """Random layered DAGs satisfy all IR invariants and topo-sort."""
    import random

    rng = random.Random(seed)
    g = OperatorGraph("rand")
    prev = []
    for i in range(width):
        g.add_data(f"in{i}", (4, 4), is_input=True)
        prev.append(f"in{i}")
    for layer in range(n_layers):
        cur = []
        for i in range(width):
            name = f"d{layer}_{i}"
            g.add_data(name, (4, 4), is_output=(layer == n_layers - 1))
            srcs = rng.sample(prev, k=rng.randint(1, len(prev)))
            kind = "remap" if len(srcs) == 1 else "max"
            g.add_operator(f"o{layer}_{i}", kind, srcs, [name])
            cur.append(name)
        prev = cur
    g.validate()
    order = g.topological_order()
    assert len(order) == len(g.ops)
    pos = {o: i for i, o in enumerate(order)}
    for o in g.ops:
        for p in g.op_predecessors(o):
            assert pos[p] < pos[o]
