"""Dynamic run-time orchestration (Section 3.3.2's closing alternative).

"Alternatively, it is also possible to use a simple run-time library to
orchestrate execution of the corresponding templates on the GPU."

This is that library: inputs transferred on demand, *online* LRU
eviction (no future knowledge, unlike the static scheduler's Belady)
and reference-counted frees.  None of those decisions looks ahead, so
:func:`repro.core.online_plan` records them before the run and the
synchronous walker (:func:`~repro.runtime.executor.execute_plan`) checks
and runs them under every plan's capacity, host-paging and launch-cost
rules.  It is the baseline that shows what static plan-ahead buys.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.baseline import online_plan
from repro.core.graph import OperatorGraph
from repro.gpusim import SimRuntime

from .executor import ExecutionResult, execute_plan


class DynamicExecutor:
    """Run-time graph orchestration on a simulated device."""

    def __init__(
        self,
        graph: OperatorGraph,
        runtime: SimRuntime,
        *,
        headroom_floats: int = 0,
    ) -> None:
        self.graph = graph
        self.rt = runtime
        self.capacity = runtime.device.usable_memory_floats - headroom_floats

    def run(
        self,
        template_inputs: Mapping[str, np.ndarray],
        op_order: Sequence[str] | None = None,
    ) -> ExecutionResult:
        plan = online_plan(self.graph, self.capacity, op_order)
        return execute_plan(plan, self.graph, self.rt, template_inputs)


def dynamic_execute(
    graph: OperatorGraph,
    runtime: SimRuntime,
    template_inputs: Mapping[str, np.ndarray],
    op_order: Sequence[str] | None = None,
) -> ExecutionResult:
    """Convenience wrapper over :class:`DynamicExecutor`."""
    return DynamicExecutor(graph, runtime).run(template_inputs, op_order)
