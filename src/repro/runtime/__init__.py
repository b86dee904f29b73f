"""Plan execution: numeric (on the simulated device) and analytic."""

from .assemble import assemble_root, gather_slot, input_chunk_array, scatter_outputs
from .dynamic import DynamicExecutor, dynamic_execute
from .events import (
    EventExecutionResult,
    EventTimeline,
    StreamEvent,
    execute_plan_events,
    plan_streams,
    simulate_plan_events,
    simulate_plan_overlap,
    step_stream,
)
from .executor import ExecutionResult, SimulatedRun, execute_plan, simulate_plan
from .reference import reference_execute

__all__ = [
    "DynamicExecutor",
    "EventExecutionResult",
    "EventTimeline",
    "ExecutionResult",
    "SimulatedRun",
    "StreamEvent",
    "assemble_root",
    "dynamic_execute",
    "execute_plan",
    "execute_plan_events",
    "gather_slot",
    "input_chunk_array",
    "plan_streams",
    "reference_execute",
    "scatter_outputs",
    "simulate_plan",
    "simulate_plan_events",
    "simulate_plan_overlap",
    "step_stream",
]
