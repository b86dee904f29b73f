"""The framework's core compilation pipeline (the paper's contribution).

Operator-graph IR, operator splitting, operator scheduling, data-transfer
scheduling, the exact Pseudo-Boolean formulation, and the end-to-end
Framework driver.
"""

from .baseline import baseline_plan, baseline_transfer_floats
from .columnar import ColumnarGraph, lower
from .framework import (
    CompiledTemplate,
    CompileOptions,
    Framework,
    run_template,
)
from .graph import (
    DataStructure,
    GraphError,
    Operator,
    OperatorGraph,
    OutSpec,
    Slot,
    op_out_specs,
    op_slots,
    output_size,
    slot_size,
)
from .incremental import (
    IncrementalCompiled,
    compile_incremental,
    extract_fragment,
    fragment_key,
    graph_fragments,
)
from .plancache import (
    CachedPlan,
    PlanCache,
    default_cache,
    plan_key,
    reset_default_cache,
)
from .pbopt import (
    PBInfeasibleError,
    PBScheduleResult,
    PBScheduler,
    PBTimeoutError,
    linear_extensions,
    pb_joint_optimum,
    pb_optimal_plan,
    pb_plan_or_heuristic,
)
from .planopt import hoist_uploads
from .plan import (
    CopyToCPU,
    CopyToGPU,
    ExecutionPlan,
    Free,
    Launch,
    PlanError,
    Step,
    validate_plan,
)
from .scheduling import (
    SCHEDULERS,
    bfs_schedule,
    dfs_naive_schedule,
    dfs_schedule,
    get_scheduler,
    greedy_schedule,
    topo_schedule,
)
from .serialize import (
    SCHEMA_VERSION,
    compiled_to_dict,
    graph_from_dict,
    graph_to_dict,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    save_plan,
)
from .splitting import (
    InfeasibleTemplateError,
    SplitReport,
    chunk_range,
    chunks_of,
    estimate_split,
    make_feasible,
    select_chunks,
)
from .transfers import schedule_transfers

dfs_schedule_columnar = dfs_schedule  # bench/layers.py resolves this name
schedule_transfers_columnar = schedule_transfers  # and this one

__all__ = [
    "CachedPlan",
    "ColumnarGraph",
    "CompileOptions",
    "CompiledTemplate",
    "CopyToCPU",
    "CopyToGPU",
    "DataStructure",
    "ExecutionPlan",
    "Framework",
    "Free",
    "GraphError",
    "IncrementalCompiled",
    "InfeasibleTemplateError",
    "Launch",
    "Operator",
    "OperatorGraph",
    "OutSpec",
    "PBInfeasibleError",
    "PBScheduleResult",
    "PBScheduler",
    "PBTimeoutError",
    "PlanCache",
    "PlanError",
    "SCHEDULERS",
    "SCHEMA_VERSION",
    "Slot",
    "SplitReport",
    "Step",
    "baseline_plan",
    "baseline_transfer_floats",
    "bfs_schedule",
    "chunk_range",
    "chunks_of",
    "compile_incremental",
    "compiled_to_dict",
    "default_cache",
    "dfs_naive_schedule",
    "dfs_schedule",
    "extract_fragment",
    "fragment_key",
    "graph_fragments",
    "graph_from_dict",
    "graph_to_dict",
    "hoist_uploads",
    "estimate_split",
    "get_scheduler",
    "greedy_schedule",
    "linear_extensions",
    "load_plan",
    "lower",
    "make_feasible",
    "op_out_specs",
    "op_slots",
    "output_size",
    "pb_joint_optimum",
    "pb_plan_or_heuristic",
    "pb_optimal_plan",
    "plan_from_dict",
    "plan_key",
    "plan_to_dict",
    "reset_default_cache",
    "run_template",
    "save_plan",
    "schedule_transfers",
    "select_chunks",
    "slot_size",
    "topo_schedule",
    "validate_plan",
]
