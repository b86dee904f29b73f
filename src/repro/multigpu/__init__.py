"""Multi-GPU execution planning.

Scales the paper's single-device framework *out*: the operator graph
(after operator splitting) is partitioned across N simulated GPUs by
row band, inter-device data movement is planned explicitly (peer
device-to-device copies, or staged through host memory), and the plan
runs on N per-device clocks behind one host with a shared PCIe cost
model, producing per-device timelines and an aggregate speedup report.

Pipeline: ``partition_graph`` assigns every operator to a device
(load-balanced by modeled kernel cost), the one transfer scheduler
(:func:`repro.core.transfers.schedule_transfers`, given that device
column and per-device capacities) turns (op order × assignment) into a
device-tagged :class:`~repro.core.plan.ExecutionPlan`, and
``execute_multi_plan`` / ``simulate_multi_plan`` run it through
:mod:`repro.runtime.executor`'s two step loops.  Both the scheduler and
the step loops plan or run a single device as their N = 1 case;
:class:`MultiSimRuntime` holds the N runtimes and their coordination
state.  ``compile_multi`` wires the whole pipeline behind
one call; see docs/MULTIGPU.md.
"""

from .framework import (
    MultiCompiledTemplate,
    compile_multi,
    execute_multi,
    simulate_multi,
)
from .partition import Partition, partition_graph
from .runtime import (
    MultiExecutionResult,
    MultiSimRuntime,
    MultiSimulatedRun,
    execute_multi_plan,
    simulate_multi_plan,
)

__all__ = [
    "MultiCompiledTemplate",
    "MultiExecutionResult",
    "MultiSimRuntime",
    "MultiSimulatedRun",
    "Partition",
    "compile_multi",
    "execute_multi",
    "execute_multi_plan",
    "partition_graph",
    "simulate_multi",
    "simulate_multi_plan",
]
