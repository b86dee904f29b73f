"""Ablation — operator scheduling heuristics (DESIGN.md section 5).

Compares the paper's depth-first schedule (with our row-band root
ordering), naive-root DFS, BFS and plain topological order, on an
out-of-core edge-detection instance and a CNN, all with identical
transfer scheduling (Belady + eager free).

Expectations: DFS <= naive DFS <= BFS in transfer volume on the
streaming pipeline; every schedule produces a valid plan.
"""

import pytest

from paper import write_report
from repro.core import SCHEDULERS, make_feasible, schedule_transfers, validate_plan
from repro.gpusim import GEFORCE_8800_GTX
from repro.templates import SMALL_CNN, cnn_graph, find_edges_graph


def build_cases():
    cap = GEFORCE_8800_GTX.usable_memory_floats // 64  # force out-of-core
    edge = find_edges_graph(1500, 1500, 16, 4).copy()
    make_feasible(edge, cap // 16)
    cnn = cnn_graph(SMALL_CNN, 148, 148).copy()
    make_feasible(cnn, 40_000)
    return [("edge 1500^2 (split)", edge, cap // 8), ("small CNN 148^2 (split)", cnn, 60_000)]


def regenerate():
    rows = []
    for label, graph, cap in build_cases():
        for name, scheduler in sorted(SCHEDULERS.items()):
            order = scheduler(graph)
            plan = schedule_transfers(graph, order, cap)
            validate_plan(plan, graph, cap)
            rows.append(
                {
                    "case": label,
                    "scheduler": name,
                    "transfers": plan.transfer_floats(graph),
                    "io": graph.io_size(),
                }
            )
    return rows


def check_shape(rows):
    by = {(r["case"], r["scheduler"]): r["transfers"] for r in rows}
    for case in {r["case"] for r in rows}:
        dfs = by[(case, "dfs")]
        assert dfs <= by[(case, "dfs_naive")], case
        assert dfs <= by[(case, "bfs")], case
    # On the streaming pipeline the gap to BFS is large.
    edge = [r for r in rows if r["case"].startswith("edge")]
    dfs = next(r for r in edge if r["scheduler"] == "dfs")["transfers"]
    bfs = next(r for r in edge if r["scheduler"] == "bfs")["transfers"]
    assert bfs >= 1.2 * dfs


def render(rows):
    lines = [
        "Ablation: operator schedule vs transfer volume (Belady + eager free)",
        f"{'case':26s} {'scheduler':10s} {'transfer floats':>16s} {'x I/O bound':>12s}",
    ]
    for r in rows:
        lines.append(
            f"{r['case']:26s} {r['scheduler']:10s} "
            f"{r['transfers']:>16,} {r['transfers'] / r['io']:>12.2f}"
        )
    return lines


def test_ablation_scheduler(benchmark):
    rows = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    check_shape(rows)
    lines = render(rows)
    path = write_report("ablation_scheduler.txt", lines)
    print()
    print("\n".join(lines))
    print(f"[written to {path}]")
