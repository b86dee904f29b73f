"""Tests for plan/graph JSON serialization."""

import json
import os

import numpy as np
import pytest

from repro.core import (
    Framework,
    graph_from_dict,
    graph_to_dict,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    save_plan,
    validate_plan,
)
from repro.gpusim import GpuDevice, SimRuntime
from repro.runtime import execute_plan, reference_execute
from repro.templates import find_edges_graph, find_edges_inputs

DEV = GpuDevice(name="ser-dev", memory_bytes=96 * 1024)


@pytest.fixture()
def compiled():
    g = find_edges_graph(48, 40, 5, 4)
    return Framework(DEV).compile(g)


class TestGraphRoundTrip:
    def test_unsplit(self):
        g = find_edges_graph(32, 24, 3, 2)
        h = graph_from_dict(graph_to_dict(g))
        assert set(h.ops) == set(g.ops)
        assert set(h.data) == set(g.data)
        assert h.io_size() == g.io_size()
        h.validate()

    def test_split_graph_with_slots(self, compiled):
        g = compiled.graph
        h = graph_from_dict(graph_to_dict(g))
        h.validate()
        assert {d for d, x in h.data.items() if x.virtual} == {
            d for d, x in g.data.items() if x.virtual
        }
        for name, op in g.ops.items():
            assert h.ops[name].kind == op.kind
            assert h.ops[name].inputs == op.inputs
            if "slots" in op.params:
                hs = h.ops[name].params["slots"]
                gs = op.params["slots"]
                assert [(s.root, s.rows, s.chunks) for s in hs] == [
                    (s.root, s.rows, s.chunks) for s in gs
                ]

    def test_json_clean(self, compiled):
        text = json.dumps(graph_to_dict(compiled.graph))
        assert isinstance(text, str)


class TestPlanRoundTrip:
    def test_steps_preserved(self, compiled):
        plan2 = plan_from_dict(plan_to_dict(compiled.plan))
        assert plan2.steps == compiled.plan.steps
        assert plan2.capacity_floats == compiled.plan.capacity_floats
        assert plan2.label == compiled.plan.label

    def test_file_round_trip_executes(self, compiled, tmp_path):
        path = os.fspath(tmp_path / "plan.json")
        save_plan(compiled, path)
        graph, plan = load_plan(path)
        validate_plan(plan, graph, compiled.plan.capacity_floats)
        inputs = find_edges_inputs(48, 40, 5, 4, seed=9)
        ref = reference_execute(find_edges_graph(48, 40, 5, 4), inputs)["Edg"]
        res = execute_plan(plan, graph, SimRuntime(DEV), inputs)
        np.testing.assert_allclose(res.outputs["Edg"], ref, rtol=1e-4, atol=1e-5)

    def test_transfer_accounting_preserved(self, compiled, tmp_path):
        path = os.fspath(tmp_path / "plan.json")
        save_plan(compiled, path)
        graph, plan = load_plan(path)
        assert plan.transfer_floats(graph) == compiled.transfer_floats()

    def test_version_check(self, compiled, tmp_path):
        path = os.fspath(tmp_path / "plan.json")
        save_plan(compiled, path)
        raw = json.load(open(path))
        raw["format_version"] = 99
        json.dump(raw, open(path, "w"))
        with pytest.raises(ValueError, match="format"):
            load_plan(path)


class TestSchemaVersioning:
    """plan dicts carry schema_version; readers accept same-major,
    reject other majors with an actionable message."""

    def plan_dict(self, compiled):
        return plan_to_dict(compiled.plan)

    def test_current_version_is_written(self, compiled):
        from repro.core import SCHEMA_VERSION

        raw = self.plan_dict(compiled)
        assert raw["schema_version"] == SCHEMA_VERSION
        assert next(iter(raw)) == "schema_version"

    def test_round_trip_accepts_current(self, compiled):
        plan = plan_from_dict(self.plan_dict(compiled))
        assert [type(s).__name__ for s in plan.steps] == [
            type(s).__name__ for s in compiled.plan.steps
        ]

    def test_prior_minor_accepted(self, compiled):
        raw = self.plan_dict(compiled)
        raw["schema_version"] = "1.0"
        plan_from_dict(raw)

    def test_future_minor_of_same_major_accepted(self, compiled):
        raw = self.plan_dict(compiled)
        raw["schema_version"] = "1.99"
        plan_from_dict(raw)

    def test_missing_version_read_as_1_0(self, compiled):
        raw = self.plan_dict(compiled)
        del raw["schema_version"]
        plan_from_dict(raw)

    def test_unknown_major_rejected_actionably(self, compiled):
        raw = self.plan_dict(compiled)
        raw["schema_version"] = "2.0"
        with pytest.raises(ValueError) as err:
            plan_from_dict(raw)
        message = str(err.value)
        assert "schema version 2.0" in message
        assert "re-compile" in message

    def test_malformed_version_rejected(self, compiled):
        raw = self.plan_dict(compiled)
        raw["schema_version"] = "latest"
        with pytest.raises(ValueError, match="malformed"):
            plan_from_dict(raw)

    def test_saved_file_carries_version(self, compiled, tmp_path):
        from repro.core import SCHEMA_VERSION

        path = str(tmp_path / "plan.json")
        save_plan(compiled, path)
        with open(path) as fh:
            assert json.load(fh)["plan"]["schema_version"] == SCHEMA_VERSION
        load_plan(path)
