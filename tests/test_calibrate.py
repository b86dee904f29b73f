"""Tests for cost-model calibration and DOT export."""

import dataclasses

import pytest

from repro.analysis import graph_to_dot
from repro.core import Framework
from repro.gpusim import (
    Observation,
    TESLA_C870,
    XEON_WORKSTATION,
    calibrate,
)
from repro.runtime import simulate_plan
from repro.templates import cnn_graph, find_edges_graph, SMALL_CNN


def make_observation(side=256, kernel=8, seconds=None, device=None):
    device = device or TESLA_C870
    g = find_edges_graph(side, side, kernel, 4)
    compiled = Framework(device, host=XEON_WORKSTATION).compile(g)
    if seconds is None:
        seconds = simulate_plan(
            compiled.plan, compiled.graph, device, XEON_WORKSTATION
        ).total_time
    return Observation(compiled.plan, compiled.graph, seconds, f"edge{side}")


class TestCalibrate:
    def test_recovers_ground_truth(self):
        """Observations generated BY a known device calibrate back to a
        model that reproduces them (near-zero error)."""
        truth = dataclasses.replace(
            TESLA_C870, pcie_bandwidth=1.0e9, compute_efficiency=0.1
        )
        obs = [
            make_observation(side=s, kernel=k, device=truth)
            for s, k in ((256, 4), (512, 8), (384, 16))
        ]
        res = calibrate(TESLA_C870, obs, XEON_WORKSTATION)
        assert res.mean_log_ratio_error < 0.02
        assert res.max_ratio_error() < 1.3

    def test_result_structure(self):
        obs = [make_observation()]
        res = calibrate(
            TESLA_C870,
            obs,
            XEON_WORKSTATION,
            bandwidths=[1.0e9, 2.0e9],
            efficiencies=[0.1, 0.3],
            refine_rounds=1,
        )
        assert res.device.pcie_bandwidth == res.pcie_bandwidth
        assert len(res.per_observation) == 1
        assert res.max_ratio_error() >= 1.0

    def test_requires_observations(self):
        with pytest.raises(ValueError):
            calibrate(TESLA_C870, [])

    def test_refinement_improves_or_ties(self):
        truth = dataclasses.replace(
            TESLA_C870, pcie_bandwidth=1.3e9, compute_efficiency=0.17
        )
        obs = [make_observation(side=300, kernel=6, device=truth)]
        coarse = calibrate(TESLA_C870, obs, XEON_WORKSTATION, refine_rounds=1)
        fine = calibrate(TESLA_C870, obs, XEON_WORKSTATION, refine_rounds=3)
        assert fine.mean_log_ratio_error <= coarse.mean_log_ratio_error + 1e-12


class TestDotExport:
    def test_edge_template(self):
        g = find_edges_graph(64, 64, 5, 4)
        dot = graph_to_dot(g)
        assert dot.startswith("digraph")
        assert dot.count("shape=ellipse") == len(g.ops)
        concrete = sum(1 for ds in g.data.values() if not ds.virtual)
        assert dot.count("shape=box") == concrete
        assert "[in]" in dot and "[out]" in dot

    def test_split_graph_clusters_chunks(self):
        from repro.core import make_feasible

        g = find_edges_graph(64, 48, 5, 4).copy()
        make_feasible(g, g.max_footprint() // 2)
        dot = graph_to_dot(g)
        assert "cluster_" in dot
        assert "(split)" in dot

    def test_edge_count_matches_graph(self):
        g = find_edges_graph(32, 32, 3, 2)
        dot = graph_to_dot(g)
        expected = sum(
            len(dict.fromkeys(op.inputs)) + len(dict.fromkeys(op.outputs))
            for op in g.ops.values()
        )
        assert dot.count(" -> ") == expected

    def test_too_large_rejected(self):
        g = cnn_graph(SMALL_CNN, 48, 48)
        with pytest.raises(ValueError, match="too large"):
            graph_to_dot(g)
