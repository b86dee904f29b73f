"""Row-band partitioning of a split operator graph across N devices.

Operator splitting (Section 3.3.2) already decomposes oversized
operators into parts that each produce a contiguous *row band* of their
logical output.  Bands are the natural unit of data parallelism: parts
covering the same rows of successive pipeline stages form a vertical
slice that can run on one device with no cross-device traffic except at
halos and reductions.  The partitioner therefore:

1. orders operators by (band start, schedule position) — the same
   band-major order the DFS scheduler uses;
2. assigns each operator a modeled kernel cost from the device cost
   model (roofline over the impl's flops / bytes);
3. cuts the ordered list into N contiguous segments whose cumulative
   costs are as equal as possible (classic linear partition, done
   greedily against the ideal per-device share).

Contiguity in band order keeps each device's working set a contiguous
row range; balance by *cost* rather than operator count absorbs
heterogeneous operators (convolutions vs. cheap remaps).  Correctness
never depends on the assignment — the multi-device transfer scheduler
inserts whatever inter-device movement any assignment needs — so the
partitioner is free to be a heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.graph import OperatorGraph
from repro.core.scheduling import row_band
from repro.gpusim import FLOAT_BYTES, CostModel, DeviceGroup
from repro.ops import launch_cost


@dataclass
class Partition:
    """A device assignment for every operator of a graph."""

    assignment: dict[str, int]
    num_devices: int
    #: modeled kernel seconds per device (the balance objective)
    device_costs: list[float] = field(default_factory=list)

    def device_of(self, op_name: str) -> int:
        return self.assignment[op_name]

    def ops_on(self, device: int) -> list[str]:
        return [o for o, d in self.assignment.items() if d == device]

    @property
    def imbalance(self) -> float:
        """max/mean device cost; 1.0 is a perfect balance."""
        if not self.device_costs or not any(self.device_costs):
            return 1.0
        mean = sum(self.device_costs) / len(self.device_costs)
        return max(self.device_costs) / mean if mean else 1.0


def modeled_op_cost(
    graph: OperatorGraph, op_name: str, cost: CostModel
) -> float:
    """Roofline kernel seconds for one operator on the model's device."""
    return cost.kernel_time(*launch_cost(graph.ops[op_name], graph))


def _band_order(
    graph: OperatorGraph, op_order: Sequence[str]
) -> list[str]:
    """Operators sorted by (band start fraction, schedule position).

    The band start is normalised by the operator's output-root rows so
    differently-sized roots interleave fairly.  Operators with no band
    (unsplit ops, reduction combines) inherit position only — they sort
    by where the schedule placed them, which keeps them adjacent to
    their band's producers.
    """
    pos = {o: i for i, o in enumerate(op_order)}

    def key(op_name: str) -> tuple[float, int]:
        band = row_band(graph, op_name)
        if band is None:
            return (0.0, pos[op_name])
        op = graph.ops[op_name]
        root_rows = 0
        for out in op.outputs:
            parent = graph.data[out].parent
            if parent is not None:
                root_rows = max(root_rows, graph.data[parent].rows)
        frac = band[0] / root_rows if root_rows else float(band[0])
        return (frac, pos[op_name])

    return sorted(op_order, key=key)


def partition_graph(
    graph: OperatorGraph,
    op_order: Sequence[str],
    group: DeviceGroup,
    host=None,
) -> Partition:
    """Assign every operator to a device, balancing modeled kernel cost.

    Walks operators in band order, accumulating cost; a new segment
    starts when the running segment reaches the ideal share of the
    remaining cost over the remaining devices (so late imbalance can
    still be corrected).  With one device everything lands on device 0
    and the result degenerates to the single-GPU pipeline.
    """
    if len(op_order) != len(graph.ops) or set(op_order) != set(graph.ops):
        raise ValueError("op_order must cover exactly the graph's operators")
    n = len(group)
    models = [CostModel(d, host) for d in group.devices]
    if n == 1:
        return Partition(
            assignment={o: 0 for o in op_order},
            num_devices=1,
            device_costs=[sum(modeled_op_cost(graph, o, models[0]) for o in op_order)],
        )

    ordered = _band_order(graph, op_order)
    loads = [launch_cost(graph.ops[o], graph) for o in ordered]
    total = sum(models[0].kernel_time(*load) for load in loads)

    assignment: dict[str, int] = {}
    device_costs = [0.0] * n
    dev = 0
    remaining = total
    for i, (op_name, load) in enumerate(zip(ordered, loads)):
        # Heterogeneous groups: cost each op on the device currently being
        # filled, so a slower device gets a proportionally smaller band.
        c = models[dev].kernel_time(*load)
        devices_left = n - dev
        ideal = remaining / devices_left if devices_left else remaining
        ops_left = len(ordered) - i
        # Advance to the next device when this one has its share — but
        # never leave fewer ops than devices still to fill.
        if (
            dev < n - 1
            and device_costs[dev] > 0
            and device_costs[dev] + c / 2 >= ideal
            and ops_left > devices_left - 1
        ):
            remaining -= device_costs[dev]
            dev += 1
        assignment[op_name] = dev
        device_costs[dev] += c
    return Partition(
        assignment=assignment, num_devices=n, device_costs=device_costs
    )


def partition_summary(
    graph: OperatorGraph, part: Partition
) -> dict[str, object]:
    """Human-readable accounting of a partition (analysis/CLI)."""
    per_dev_ops = [len(part.ops_on(d)) for d in range(part.num_devices)]
    per_dev_out_floats = []
    for d in range(part.num_devices):
        out = sum(
            graph.data[o].size
            for name in part.ops_on(d)
            for o in graph.ops[name].outputs
        )
        per_dev_out_floats.append(out)
    return {
        "num_devices": part.num_devices,
        "ops_per_device": per_dev_ops,
        "output_floats_per_device": per_dev_out_floats,
        "output_bytes_per_device": [
            f * FLOAT_BYTES for f in per_dev_out_floats
        ],
        "modeled_cost_per_device": list(part.device_costs),
        "imbalance": part.imbalance,
    }
