"""Figure-6-style plan timelines.

Renders an execution plan as the paper's Figure 6: one row per step,
showing the action, the data structures alive in GPU memory (with their
sizes), the running device occupancy, and which host copies exist.
Useful for eyeballing why a plan transfers what it transfers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.graph import OperatorGraph
from repro.core.plan import ExecutionPlan
from repro.core.walk import HOOKS, Observer, Residency


@dataclass
class TimelineRow:
    step: str
    gpu_resident: list[str]
    gpu_floats: int
    host_copies: list[str]


def plan_timeline(
    plan: ExecutionPlan, graph: OperatorGraph
) -> list[TimelineRow]:
    """Per-step memory snapshots of device 0, taken as the residency
    machine walks the plan."""
    machine = Residency(graph, [plan.capacity_floats] * plan.num_devices)
    inputs = {d for d, ds in graph.data.items() if ds.is_input}
    rows: list[TimelineRow] = []

    def snapshot(i: int, *_) -> None:
        rows.append(
            TimelineRow(
                step=str(plan.steps[i]),
                gpu_resident=sorted(machine.resident[0]),
                gpu_floats=machine.used[0],
                host_copies=sorted(machine.on_host - inputs),
            )
        )

    machine.walk(plan, Observer(**dict.fromkeys(HOOKS.values(), snapshot)))
    return rows


def render_timeline(
    plan: ExecutionPlan,
    graph: OperatorGraph,
    capacity_floats: int | None = None,
    width: int = 24,
) -> str:
    """ASCII rendering (cf. Figure 6's host/GPU memory columns)."""
    # cap == 0 means the capacity is unknown (e.g. a hand-built plan):
    # render "?" bars rather than a misleading full-occupancy bar.
    cap = capacity_floats or plan.capacity_floats or 0
    rows = plan_timeline(plan, graph)
    lines = [
        f"{'step':28s} {'GPU memory':>{width}s} {'use':>9s}  host copies",
        "-" * (28 + width + 9 + 14),
    ]
    for row in rows:
        gpu = ",".join(row.gpu_resident)
        if len(gpu) > width:
            gpu = gpu[: width - 2] + ".."
        if cap:
            bar_len = min(int(10 * row.gpu_floats / cap), 10)
            bar = "#" * bar_len + "." * (10 - bar_len)
        else:
            bar = "?" * 10
        host = ",".join(row.host_copies)
        lines.append(
            f"{row.step:28s} {gpu:>{width}s} [{bar}]  {host}"
        )
    return "\n".join(lines)
