"""Ablation — eviction policy and eager free (DESIGN.md section 5).

The paper's transfer scheduler rests on two choices: Belady-style
"latest time of use" eviction (step 2) and eager deletion of dead data
(step 3).  This ablation quantifies both against LRU/FIFO/static-LTU and
lazy freeing, with the operator schedule held fixed (DFS).
"""

import pytest

from paper import write_report
from repro.core import dfs_schedule, make_feasible, schedule_transfers, validate_plan
from repro.templates import SMALL_CNN, cnn_graph, find_edges_graph

POLICIES = ("belady", "cost", "ltu", "lru", "fifo")


def build_cases():
    edge = find_edges_graph(1200, 1200, 16, 8).copy()
    make_feasible(edge, 2_000_000)
    cnn = cnn_graph(SMALL_CNN, 148, 148).copy()
    make_feasible(cnn, 40_000)
    return [("edge 1200^2 8-orient", edge, 2_500_000), ("small CNN 148^2", cnn, 60_000)]


def regenerate():
    rows = []
    for label, graph, cap in build_cases():
        order = dfs_schedule(graph)
        for policy in POLICIES:
            for eager in (True, False):
                plan = schedule_transfers(
                    graph, order, cap, policy=policy, eager_free=eager
                )
                validate_plan(plan, graph, cap)
                rows.append(
                    {
                        "case": label,
                        "policy": policy,
                        "eager": eager,
                        "transfers": plan.transfer_floats(graph),
                    }
                )
    return rows


def check_shape(rows):
    by = {(r["case"], r["policy"], r["eager"]): r["transfers"] for r in rows}
    cases = {r["case"] for r in rows}
    for case in cases:
        # Belady-family + eager is the best configuration in every case
        # (cost-aware Belady may edge out plain Belady; neither loses).
        best = min(by[(case, "belady", True)], by[(case, "cost", True)])
        for policy in POLICIES:
            for eager in (True, False):
                assert best <= by[(case, policy, eager)], (case, policy, eager)
        # Eager freeing never hurts for a fixed policy.
        for policy in POLICIES:
            assert by[(case, policy, True)] <= by[(case, policy, False)], (
                case,
                policy,
            )


def render(rows):
    lines = [
        "Ablation: eviction policy x eager free (DFS schedule)",
        f"{'case':22s} {'policy':8s} {'eager':>6s} {'transfer floats':>16s}",
    ]
    for r in rows:
        lines.append(
            f"{r['case']:22s} {r['policy']:8s} {str(r['eager']):>6s} "
            f"{r['transfers']:>16,}"
        )
    return lines


def test_ablation_eviction(benchmark):
    rows = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    check_shape(rows)
    lines = render(rows)
    path = write_report("ablation_eviction.txt", lines)
    print()
    print("\n".join(lines))
    print(f"[written to {path}]")
