"""Exact offload and data-transfer scheduling (Section 3.3.2, Figure 5).

Encodes the paper's Pseudo-Boolean optimisation problem over our
from-scratch PB solver (:mod:`repro.pb`) and decodes the optimal model
back into an :class:`~repro.core.plan.ExecutionPlan`.

Variables (exactly the paper's):

* ``x[i,t]``            operator *i* executes at time step *t*
* ``g[j,t]`` / ``c[j,t]``  data *j* present in GPU / CPU memory at *t*
* ``Copy_to_GPU[j,t]`` / ``Copy_to_CPU[j,t]``  transfers during step *t*
* ``done[i,t]`` / ``dead[j,t]``  execution / liveness bookkeeping

Constraints (1)-(19) follow Figure 5.  Two consistency constraints that
the condensed figure leaves implicit are added so decoded plans are
physically executable (they do not change the optimum, since transfers
are never cheaper with them removed):

* ``Copy_to_GPU[j,t] -> c[j,t-1]``  (can only upload data the host holds)
* ``Copy_to_CPU[j,t] -> g[j,t-1]``  (can only download resident data)

As the paper notes, the encoding is O(N^2 M) and only practical for
graphs up to a few tens of operators; the heuristics in
:mod:`repro.core.scheduling` / :mod:`repro.core.transfers` cover the
rest.  Data sizes are rescaled by their GCD to keep the counter
encodings small, mirroring MiniSAT+ usage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.pb import PBSolver

from .graph import OperatorGraph
from .plan import CopyToCPU, CopyToGPU, ExecutionPlan, Free, Launch, Step, validate_plan
from .scheduling import dfs_schedule
from .transfers import schedule_transfers


#: solver conflict budget of a ``scheduler="pb"`` compile: bounds its
#: worst-case latency (a budget that runs out keeps the incumbent or
#: falls back to the heuristic plan)
PB_CONFLICT_BUDGET = 20_000


class PBInfeasibleError(RuntimeError):
    """The formulation admits no schedule (within the given bound)."""


class PBTimeoutError(RuntimeError):
    """The conflict budget ran out before any feasible model was found."""


@dataclass
class PBScheduleResult:
    """Optimal plan plus solver statistics."""

    plan: ExecutionPlan
    transfer_floats: int
    op_order: list[str]
    solve_calls: int
    num_vars: int
    num_constraints: int
    #: "pb" (proven optimal), "pb-incumbent" (budget ran out, best model
    #: kept) or "heuristic" (fell back to the DFS + Belady pipeline)
    source: str = "pb"

    @property
    def optimal(self) -> bool:
        return self.source == "pb"


@dataclass
class _Vars:
    x: dict[tuple[int, int], int] = field(default_factory=dict)
    g: dict[tuple[int, int], int] = field(default_factory=dict)
    c: dict[tuple[int, int], int] = field(default_factory=dict)
    cpg: dict[tuple[int, int], int] = field(default_factory=dict)
    cpc: dict[tuple[int, int], int] = field(default_factory=dict)
    done: dict[tuple[int, int], int] = field(default_factory=dict)
    dead: dict[tuple[int, int], int] = field(default_factory=dict)


class PBScheduler:
    """Builds and solves the Figure-5 formulation for one template.

    ``fixed_order`` pins the operator schedule (only transfers are then
    optimised — the paper's observation that with a known operator
    schedule the formulation shrinks to O(NM) and scales further).
    ASAP/ALAP time windows derived from the dependency structure prune
    the free-schedule search space.
    """

    def __init__(
        self,
        graph: OperatorGraph,
        capacity_floats: int,
        fixed_order: list[str] | None = None,
        *,
        record_opb: bool = False,
    ) -> None:
        self.graph = graph
        self.capacity = capacity_floats
        self.fixed_order = fixed_order
        self.record_opb = record_opb
        self.ops = list(fixed_order) if fixed_order else list(graph.ops)
        if fixed_order is not None and (
            len(fixed_order) != len(graph.ops)
            or set(fixed_order) != set(graph.ops)
        ):
            raise ValueError("fixed_order must cover exactly the graph's operators")
        self.datas = [d for d, ds in graph.data.items() if not ds.virtual]
        self.N = len(self.ops)
        sizes = [graph.data[d].size for d in self.datas]
        self.scale = math.gcd(*sizes) if sizes else 1
        self.D = {
            d: graph.data[d].size // self.scale for d in self.datas
        }
        self.cap_scaled = capacity_floats // self.scale
        self.solver = PBSolver(record=record_opb)
        self.v = _Vars()
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        s, v = self.solver, self.v
        graph, ops, datas, N = self.graph, self.ops, self.datas, self.N
        IA = {
            (i, j): datas[j] in set(graph.ops[ops[i]].inputs)
            for i in range(N)
            for j in range(len(datas))
        }
        OA = {
            (i, j): datas[j] in set(graph.ops[ops[i]].outputs)
            for i in range(N)
            for j in range(len(datas))
        }
        self._IA, self._OA = IA, OA
        M = len(datas)
        T = range(1, N + 1)
        for i in range(N):
            for t in T:
                v.x[i, t] = s.new_var()
            for t in range(0, N + 1):
                v.done[i, t] = s.new_var()
        for j in range(M):
            for t in range(0, N + 1):
                v.g[j, t] = s.new_var()
            for t in range(0, N + 2):
                v.c[j, t] = s.new_var()
            for t in range(1, N + 1):
                v.cpg[j, t] = s.new_var()
            for t in range(1, N + 2):
                v.cpc[j, t] = s.new_var()
            for t in range(1, N + 2):
                v.dead[j, t] = s.new_var()
        if self.fixed_order is not None:
            # Pin the schedule: operator at position t-1 runs at step t.
            for t, o in enumerate(self.ops, start=1):
                for i in range(N):
                    s.add_clause(
                        [v.x[i, t]] if i == t - 1 else [-v.x[i, t]]
                    )
        else:
            # ASAP/ALAP windows: an operator cannot run before all its
            # (transitive) predecessors nor after N minus its descendants.
            name_idx = {o: i for i, o in enumerate(ops)}
            anc = {o: 0 for o in ops}
            desc = {o: 0 for o in ops}
            anc_sets: dict[str, set[str]] = {}
            for o in graph.topological_order():
                sset: set[str] = set()
                for p in graph.op_predecessors(o):
                    sset |= anc_sets[p]
                    sset.add(p)
                anc_sets[o] = sset
                anc[o] = len(sset)
            for o, sset in anc_sets.items():
                for p in sset:
                    desc[p] += 1
            for o in ops:
                i = name_idx[o]
                asap = anc[o] + 1
                alap = N - desc[o]
                for t in T:
                    if t < asap or t > alap:
                        s.add_clause([-v.x[i, t]])
            # (1) exactly one operator per time step
            for t in T:
                s.exactly_one([v.x[i, t] for i in range(N)])
            # (2) every operator exactly once
            for i in range(N):
                s.exactly_one([v.x[i, t] for t in T])
            # (3) precedence: a predecessor never runs after its dependant
            for o in ops:
                i2 = name_idx[o]
                for p in graph.op_predecessors(o):
                    i1 = name_idx[p]
                    for t1 in T:
                        for t2 in T:
                            if t1 > t2:
                                s.add_clause([-v.x[i1, t1], -v.x[i2, t2]])
        # (4) GPU memory capacity at every step
        for t in range(0, N + 1):
            s.add_leq(
                [(self.D[datas[j]], v.g[j, t]) for j in range(M)],
                self.cap_scaled,
            )
        # (5) inputs and outputs resident while the operator runs
        for i in range(N):
            for j in range(M):
                if IA[i, j] or OA[i, j]:
                    for t in T:
                        s.add_clause([-v.x[i, t], v.g[j, t]])
        # (6) a missing input must be copied in
        for i in range(N):
            for j in range(M):
                if IA[i, j]:
                    for t in T:
                        s.add_clause(
                            [-v.x[i, t], v.g[j, t - 1], v.cpg[j, t]]
                        )
        # (7) copying to the GPU makes the data resident
        for j in range(M):
            for t in T:
                s.add_clause([-v.cpg[j, t], v.g[j, t]])
        # (8) GPU persistence: residency has a legal cause
        for j in range(M):
            for t in T:
                clause = [-v.g[j, t], v.g[j, t - 1], v.cpg[j, t]]
                clause += [v.x[i, t] for i in range(N) if OA[i, j]]
                s.add_clause(clause)
        # (9) producing on the GPU invalidates the host copy
        for i in range(N):
            for j in range(M):
                if OA[i, j]:
                    for t in T:
                        s.add_clause(
                            [-v.x[i, t], v.cpc[j, t + 1], -v.c[j, t + 1]]
                        )
        # (10) CPU persistence: host copies appear only via Copy_to_CPU
        for j in range(M):
            for t in range(0, N + 1):
                s.add_clause([v.c[j, t], v.cpc[j, t + 1], -v.c[j, t + 1]])
        # consistency completions (see module docstring)
        for j in range(M):
            for t in range(1, N + 1):
                s.add_clause([-v.cpg[j, t], v.c[j, t - 1]])
            for t in range(1, N + 2):
                s.add_clause([-v.cpc[j, t], v.g[j, t - 1]])
                # a successful copy leaves a host copy
                if t <= N + 1:
                    s.add_clause([-v.cpc[j, t], v.c[j, t]])
        # (11) initially all data on the CPU, (12) none on the GPU
        for j in range(M):
            s.add_clause([v.c[j, 0]])
            s.add_clause([-v.g[j, 0]])
        # (13) template outputs on the CPU at the end
        for j, d in enumerate(datas):
            if graph.data[d].is_output:
                s.add_clause([v.c[j, N + 1]])
        # (14-16) done bookkeeping (as equivalences)
        for i in range(N):
            s.add_clause([-v.done[i, 0]])
            for t in T:
                s.add_clause([-v.x[i, t], v.done[i, t]])
                s.add_clause([-v.done[i, t - 1], v.done[i, t]])
                s.add_clause(
                    [-v.done[i, t], v.x[i, t], v.done[i, t - 1]]
                )
        # (17-18) dead bookkeeping
        consumers = {
            j: [i for i in range(N) if IA[i, j]] for j in range(M)
        }
        for j, d in enumerate(datas):
            s.add_clause([-v.dead[j, 1]])
            if graph.data[d].is_output:
                for t in range(1, N + 2):
                    s.add_clause([-v.dead[j, t]])
                continue
            for t in range(1, N + 1):
                # dead[t+1] <-> dead[t] or all consumers done at t
                all_done = s.new_var()
                for i in consumers[j]:
                    s.add_clause([-all_done, v.done[i, t]])
                s.add_clause(
                    [all_done] + [-v.done[i, t] for i in consumers[j]]
                )
                s.add_clause([-v.dead[j, t], v.dead[j, t + 1]])
                s.add_clause([-all_done, v.dead[j, t + 1]])
                s.add_clause([-v.dead[j, t + 1], v.dead[j, t], all_done])
        # (19) live data must exist somewhere
        for j in range(M):
            for t in range(1, N + 1):
                s.add_clause([v.dead[j, t], v.c[j, t], v.g[j, t]])

    # ------------------------------------------------------------------
    def solve(
        self,
        upper_bound_floats: int | None = None,
        conflict_budget: int | None = None,
    ) -> PBScheduleResult:
        """Minimise total transfer volume; decode the optimal model.

        ``upper_bound_floats`` (e.g. the heuristic plan's volume) seeds
        the descent.  ``conflict_budget`` caps total solver effort: if it
        runs out with an incumbent the (feasible, possibly sub-optimal)
        incumbent is decoded with ``source="pb-incumbent"``; if it runs
        out before any model, :class:`PBTimeoutError` is raised.
        """
        v, datas = self.v, self.datas
        objective = []
        for j, d in enumerate(datas):
            w = self.D[d]
            for t in range(1, self.N + 1):
                objective.append((w, v.cpg[j, t]))
            for t in range(1, self.N + 2):
                objective.append((w, v.cpc[j, t]))
        ub = (
            upper_bound_floats // self.scale
            if upper_bound_floats is not None
            else None
        )
        if self.fixed_order is None:
            # Warm-start hints: prefer a heuristic-schedule assignment.
            hint = dfs_schedule(self.graph)
            name_idx = {o: i for i, o in enumerate(self.ops)}
            for t, o in enumerate(hint, start=1):
                self.solver.suggest(v.x[name_idx[o], t], weight=2.0)
        result = self.solver.minimize(
            objective, upper_bound=ub, conflict_budget=conflict_budget
        )
        if result.status == "timeout" and result.model is None:
            raise PBTimeoutError(
                f"PB solve exhausted its conflict budget ({conflict_budget}) "
                "before finding any feasible schedule"
            )
        if result.status == "unsat":
            raise PBInfeasibleError(
                "PB formulation unsatisfiable: template cannot execute "
                f"within {self.capacity} floats of device memory"
                + (" under the given upper bound" if ub is not None else "")
            )
        plan, order = self._decode(result.model)
        validate_plan(plan, self.graph, self.capacity)
        return PBScheduleResult(
            plan=plan,
            transfer_floats=result.value * self.scale,
            op_order=order,
            solve_calls=result.solve_calls,
            num_vars=self.solver.num_vars,
            num_constraints=self.solver.num_constraints,
            source="pb" if result.status == "optimal" else "pb-incumbent",
        )

    def _decode(self, model: dict[int, bool]) -> tuple[ExecutionPlan, list[str]]:
        v, datas, ops = self.v, self.datas, self.ops
        steps: list[Step] = []
        order: list[str] = []
        for t in range(1, self.N + 1):
            for j, d in enumerate(datas):
                if model[v.cpc[j, t]]:
                    steps.append(CopyToCPU(d))
            for j, d in enumerate(datas):
                if model[v.g[j, t - 1]] and not model[v.g[j, t]]:
                    steps.append(Free(d))
            for j, d in enumerate(datas):
                if model[v.cpg[j, t]]:
                    steps.append(CopyToGPU(d))
            for i, o in enumerate(ops):
                if model[v.x[i, t]]:
                    steps.append(Launch(o))
                    order.append(o)
        for j, d in enumerate(datas):
            if model[v.cpc[j, self.N + 1]]:
                steps.append(CopyToCPU(d))
        for j, d in enumerate(datas):
            if model[v.g[j, self.N]]:
                steps.append(Free(d))
        return (
            ExecutionPlan(
                steps=steps, capacity_floats=self.capacity, label="pb-optimal"
            ),
            order,
        )


def _objective_terms(sched: "PBScheduler") -> list:
    v, datas = sched.v, sched.datas
    objective = []
    for j, d in enumerate(datas):
        w = sched.D[d]
        for t in range(1, sched.N + 1):
            objective.append((w, v.cpg[j, t]))
        for t in range(1, sched.N + 2):
            objective.append((w, v.cpc[j, t]))
    return objective


def export_opb(graph: OperatorGraph, capacity_floats: int) -> str:
    """Export the Figure-5 formulation of a template as OPB text.

    The instance can be fed to any OPB-compliant solver (the MiniSAT+
    family the paper used) for independent cross-checking; objective
    values are in GCD-scaled size units (multiply by the printed scale).
    """
    from repro.pb import dumps_opb

    sched = PBScheduler(graph, capacity_floats, record_opb=True)
    inst = sched.solver.to_instance(objective=_objective_terms(sched))
    header = (
        f"* Figure-5 formulation of template {graph.name!r}\n"
        f"* capacity {capacity_floats} floats, size unit = {sched.scale} floats\n"
    )
    return header + dumps_opb(inst)


def _heuristic_plan(
    graph: OperatorGraph,
    capacity_floats: int,
    fixed_order: list[str] | None,
) -> tuple[list[str], ExecutionPlan]:
    """The heuristic pipeline (DFS + Belady) seeding or replacing a solve."""
    order = fixed_order or dfs_schedule(graph)
    return order, schedule_transfers(graph, order, capacity_floats)


def pb_optimal_plan(
    graph: OperatorGraph,
    capacity_floats: int,
    *,
    fixed_order: list[str] | None = None,
    upper_bound_floats: int | None = None,
    seed_from_heuristic: bool = True,
    tracer=None,
) -> PBScheduleResult:
    """Solve the Figure-5 formulation exactly (small templates only).

    By default the heuristic pipeline's transfer volume is computed first
    and used as the descent's upper bound, which is both the practical
    MiniSAT+ usage pattern and a proof that PB <= heuristic.  Pass a
    :class:`repro.obs.Tracer` to record the solve as a
    ``pb_optimisation`` span carrying the solver statistics.
    """
    from repro.obs import Tracer

    tracer = tracer or Tracer()
    with tracer.span(
        "pb_optimisation",
        capacity_floats=capacity_floats,
        fixed_order=fixed_order is not None,
    ) as sp:
        if upper_bound_floats is None and seed_from_heuristic:
            with tracer.span("pb_upper_bound") as ub:
                _, plan = _heuristic_plan(graph, capacity_floats, fixed_order)
                upper_bound_floats = plan.transfer_floats(graph)
                ub.set(upper_bound_floats=upper_bound_floats)
        result = PBScheduler(graph, capacity_floats, fixed_order).solve(
            upper_bound_floats
        )
        sp.set(
            solve_calls=result.solve_calls,
            num_vars=result.num_vars,
            num_constraints=result.num_constraints,
            transfer_floats=result.transfer_floats,
        )
    return result


def pb_plan_or_heuristic(
    graph: OperatorGraph,
    capacity_floats: int,
    *,
    conflict_budget: int | None = None,
    fixed_order: list[str] | None = None,
    tracer=None,
) -> PBScheduleResult:
    """PB-optimal plan with a guaranteed heuristic fallback.

    The production-safe entry point to the Figure-5 solver: try the
    exact formulation under ``conflict_budget``; on timeout keep the
    feasible incumbent if one exists; on timeout-without-model or on an
    infeasible *formulation* (the time-indexed encoding is more rigid
    than the greedy pipeline, e.g. its whole-data-structure residency
    can exceed capacity where chunk-wise streaming fits), fall back to
    the heuristic DFS + Belady schedule.  Check ``result.source`` for
    which path produced the plan.
    """
    from repro.obs import Tracer

    tracer = tracer or Tracer()
    try:
        with tracer.span(
            "pb_or_heuristic", capacity_floats=capacity_floats
        ) as sp:
            if conflict_budget is None:
                result = pb_optimal_plan(
                    graph, capacity_floats, fixed_order=fixed_order,
                    tracer=tracer,
                )
            else:
                _, seed = _heuristic_plan(graph, capacity_floats, fixed_order)
                result = PBScheduler(
                    graph, capacity_floats, fixed_order
                ).solve(
                    seed.transfer_floats(graph),
                    conflict_budget=conflict_budget,
                )
            sp.set(source=result.source)
            return result
    except (PBInfeasibleError, PBTimeoutError) as exc:
        with tracer.span(
            "pb_fallback_heuristic", reason=type(exc).__name__
        ) as sp:
            order, plan = _heuristic_plan(graph, capacity_floats, fixed_order)
            validate_plan(plan, graph, capacity_floats)
            sp.set(transfer_floats=plan.transfer_floats(graph))
        return PBScheduleResult(
            plan=plan,
            transfer_floats=plan.transfer_floats(graph),
            op_order=list(order),
            solve_calls=0,
            num_vars=0,
            num_constraints=0,
            source="heuristic",
        )


def linear_extensions(graph: OperatorGraph, limit: int = 100_000):
    """Yield topological orders of the operator graph (up to ``limit``)."""
    preds = {o: set(graph.op_predecessors(o)) for o in graph.ops}
    succs = {o: graph.op_successors(o) for o in graph.ops}
    count = 0
    order: list[str] = []
    indeg = {o: len(preds[o]) for o in graph.ops}
    ready = [o for o in graph.ops if indeg[o] == 0]

    def rec():
        nonlocal count
        if count >= limit:
            return
        if len(order) == len(graph.ops):
            count += 1
            yield list(order)
            return
        for o in list(ready):
            ready.remove(o)
            order.append(o)
            opened = []
            for s in succs[o]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
                    opened.append(s)
            yield from rec()
            for s in opened:
                ready.remove(s)
            for s in succs[o]:
                indeg[s] += 1
            order.pop()
            ready.append(o)
            if count >= limit:
                return

    yield from rec()


def pb_joint_optimum(
    graph: OperatorGraph,
    capacity_floats: int,
    *,
    max_orders: int = 5000,
) -> PBScheduleResult:
    """Exact joint schedule+transfer optimum by enumerating schedules.

    Solves the fixed-order formulation (cheap, O(NM)) for every linear
    extension, tightening the upper bound as it goes — each subsequent
    order must strictly beat the incumbent or prove it cannot.  Exact
    when the graph has at most ``max_orders`` linear extensions; raises
    otherwise (use the free-schedule :func:`pb_optimal_plan` or the
    heuristics for larger graphs).
    """
    heuristic_order, plan = _heuristic_plan(graph, capacity_floats, None)
    best_bound = plan.transfer_floats(graph)
    best: PBScheduleResult | None = None
    n_orders = 0
    for order in linear_extensions(graph, limit=max_orders + 1):
        n_orders += 1
        if n_orders > max_orders:
            raise RuntimeError(
                f"graph has more than {max_orders} linear extensions; "
                "joint enumeration is not exact here"
            )
        target = best_bound if best is None else best.transfer_floats - 1
        if target < 0:
            break
        try:
            res = PBScheduler(graph, capacity_floats, list(order)).solve(target)
        except PBInfeasibleError:
            continue
        if best is None or res.transfer_floats < best.transfer_floats:
            best = res
    if best is None:
        # The heuristic bound itself was not achievable by any order at
        # <= bound, which cannot happen (the heuristic plan is feasible);
        # defensive fallback: solve the heuristic order unbounded.
        best = PBScheduler(graph, capacity_floats, heuristic_order).solve(None)
    return best
