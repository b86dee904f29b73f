"""Transfer-volume analysis (Table 1 columns).

Analytic quantities against which plans are compared:

* the *I/O lower bound* — template inputs + outputs must cross the bus
  once each, whatever the plan ("I/O transfers only" in Table 1);
* the *baseline volume* — every operator's inputs and outputs cross per
  use (:func:`repro.core.baseline.baseline_transfer_floats`);
* the *best-possible time* — the paper's Figure 8 reference: a single
  fused kernel on an infinite-memory GPU that transfers only the I/O and
  pays one launch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.baseline import baseline_transfer_floats
from repro.core.graph import OperatorGraph
from repro.gpusim import CostModel, GpuDevice, HostSystem
from repro.ops import launch_cost


def io_lower_bound_floats(graph: OperatorGraph) -> int:
    """Inputs + outputs: no correct execution can transfer less."""
    return graph.io_size()


@dataclass(frozen=True)
class BestPossible:
    """Figure 8's 'best possible' configuration."""

    time: float
    transfer_time: float
    compute_time: float
    transfer_floats: int


def best_possible(
    graph: OperatorGraph,
    device: GpuDevice,
    host: HostSystem | None = None,
) -> BestPossible:
    """Infinite memory + all operators merged into one GPU kernel.

    Transfers only the template I/O and pays a single launch overhead —
    "the optimal implementation in terms of data transfers ... and GPU
    call overhead" (Section 4.3).
    """
    cost = CostModel(device, host)
    io = io_lower_bound_floats(graph)
    transfer = cost.transfer_time_floats(io)
    flops = 0.0
    bytes_accessed = 0.0
    for op in graph.ops.values():
        op_flops, op_bytes = launch_cost(op, graph)
        flops += op_flops
        bytes_accessed += op_bytes
    compute = cost.kernel_time(flops, bytes_accessed)
    return BestPossible(
        time=transfer + compute,
        transfer_time=transfer,
        compute_time=compute,
        transfer_floats=io,
    )


@dataclass(frozen=True)
class TransferComparison:
    """One row of Table 1."""

    template: str
    total_floats: int
    lower_bound_floats: int
    baseline_floats: int | None  # None = infeasible (the paper's N/A)
    optimized_floats: dict[str, int]

    def reduction(self, device: str) -> float | None:
        if self.baseline_floats is None:
            return None
        return self.baseline_floats / self.optimized_floats[device]


def compare_transfers(
    graph: OperatorGraph,
    optimized: dict[str, int],
    baseline_feasible: bool,
) -> TransferComparison:
    return TransferComparison(
        template=graph.name,
        total_floats=graph.total_data_size(),
        lower_bound_floats=io_lower_bound_floats(graph),
        baseline_floats=(
            baseline_transfer_floats(graph) if baseline_feasible else None
        ),
        optimized_floats=dict(optimized),
    )
