"""Tests for the Figure-6-style plan timeline renderer."""

import json
import os
from pathlib import Path

import pytest

from repro.analysis import plan_timeline, render_timeline
from repro.core import Framework, dfs_schedule, schedule_transfers
from repro.core import plan_from_dict
from repro.core.plan import CopyToGPU, Free, Launch
from repro.gpusim import GpuDevice
from repro.templates import find_edges_graph

DEV = GpuDevice(name="tl-dev", memory_bytes=64 * 1024)


def build():
    g = find_edges_graph(40, 32, 5, 4)
    fw = Framework(DEV)
    return fw.compile(g)


class TestPlanTimeline:
    def test_one_row_per_step(self):
        c = build()
        rows = plan_timeline(c.plan, c.graph)
        assert len(rows) == len(c.plan.steps)

    def test_occupancy_matches_validator_peak(self):
        c = build()
        rows = plan_timeline(c.plan, c.graph)
        assert max(r.gpu_floats for r in rows) == c.peak_device_floats

    def test_resident_sets_evolve_correctly(self):
        c = build()
        rows = plan_timeline(c.plan, c.graph)
        resident: set[str] = set()
        for row, step in zip(rows, c.plan.steps):
            if isinstance(step, CopyToGPU):
                resident.add(step.data)
            elif isinstance(step, Free):
                resident.discard(step.data)
            elif isinstance(step, Launch):
                resident.update(c.graph.ops[step.op].outputs)
            assert set(row.gpu_resident) == resident

    def test_host_copies_tracked(self):
        c = build()
        rows = plan_timeline(c.plan, c.graph)
        # At the end, every template output has a host copy.
        outputs = {
            d
            for d, ds in c.graph.data.items()
            if ds.is_output and not ds.virtual
        }
        assert outputs <= set(rows[-1].host_copies)

    def test_ends_empty_device(self):
        c = build()
        rows = plan_timeline(c.plan, c.graph)
        assert rows[-1].gpu_floats == 0


class TestRender:
    def test_render_contains_all_steps(self):
        c = build()
        text = render_timeline(c.plan, c.graph)
        lines = text.splitlines()
        assert len(lines) == len(c.plan.steps) + 2  # header + rule
        assert "exec" in text and "h2d" in text

    def test_render_bar_within_bounds(self):
        c = build()
        for line in render_timeline(c.plan, c.graph).splitlines()[2:]:
            bar = line.split("[")[1].split("]")[0]
            assert len(bar) == 10

    def test_truncates_long_resident_lists(self):
        g = find_edges_graph(20, 16, 3, 8)
        plan = schedule_transfers(g, dfs_schedule(g), 10**9)
        text = render_timeline(plan, g, width=10)
        assert ".." in text

    def test_unknown_capacity_renders_question_bars(self):
        # A plan without capacity_floats must not fake full occupancy.
        from repro.core.plan import ExecutionPlan

        g = find_edges_graph(20, 16, 3, 2)
        scheduled = schedule_transfers(g, dfs_schedule(g), 10**9)
        plan = ExecutionPlan(steps=list(scheduled.steps))  # capacity 0
        for line in render_timeline(plan, g).splitlines()[2:]:
            bar = line.split("[")[1].split("]")[0]
            assert bar == "?" * 10

    def test_known_capacity_keeps_hash_bars(self):
        c = build()
        text = render_timeline(c.plan, c.graph)
        assert "#" in text and "?" not in text


GOLDEN_DIR = Path(__file__).parent / "golden"


def _golden_edge():
    """The committed edge golden plan over its recompiled graph."""
    from tests.test_golden_plans import _edge_compiled

    plan = plan_from_dict(json.loads((GOLDEN_DIR / "edge_plan.json").read_text()))
    return plan, _edge_compiled().graph


def _rows_text(rows) -> str:
    return "".join(
        json.dumps([r.step, r.gpu_resident, r.gpu_floats, r.host_copies]) + "\n"
        for r in rows
    )


class TestGoldenTimeline:
    """``plan_timeline`` rows and ``render_timeline`` text for the edge
    golden plan, byte for byte.  Regenerate with ``REGEN_GOLDEN=1``."""

    @pytest.mark.parametrize("name", ["edge_timeline_rows.txt", "edge_timeline.txt"])
    def test_edge_golden(self, name):
        plan, graph = _golden_edge()
        if name == "edge_timeline.txt":
            got = render_timeline(plan, graph) + "\n"
        else:
            got = _rows_text(plan_timeline(plan, graph))
        path = GOLDEN_DIR / name
        if os.environ.get("REGEN_GOLDEN"):
            path.write_text(got)
        assert got == path.read_text()
