"""The measured lifecycle of one workload run.

``Lifecycle.run()`` sets the workload up (several times, for a steady
``setup_s``), then measures in **rounds**.  Each round runs one slice of
every phase — cold, warm and delta compile, the PB family, numeric and
analytic runs, closed-loop blocks and an open-loop slice — so the
samples behind every metric are spread over the whole run.  This box's
speed moves by -20 %/+40 % in episodes of one to four seconds; a phase
run in one piece would sit wholly inside or outside an episode, while a
median over slices from every round lands in the normal regime.  After
the rounds every output is checked.

End-to-end metrics bind only to the stable surface:
``repro.compile/execute/simulate``, ``repro.core.Framework``/
``PlanCache``, the two services, and
``repro.runtime.simulate_plan_events`` for ``plan_hidden_share``.
Every timing is a median (sample counts are kept in ``samples``) of
samples expressed in reference seconds (:mod:`bench.reference`): a
reference-kernel sample is taken between slices, and each sample is
scaled by the two that bracket it.  Simulated seconds (``plan_*``) and
host seconds are never mixed.
"""

from __future__ import annotations

import contextlib
import gc
import random
import resource
import time
from statistics import fmean as mean
from typing import Any, Callable

import repro
from repro.core import Framework, PlanCache, pb_optimal_plan
from repro.gpusim import XEON_WORKSTATION, GpuDevice
from repro.runtime import reference_execute
from repro.templates import edge_forest_graph

from . import check, reference
from .serve import Mix, Sent, closed_loop, open_loop, start_service
from .stats import geomean, median, percentile
from .trace import Recorder, resolve
from .workloads import PHASES, Case, Workload, random_template

SETUP_REPEATS = 3
ROUNDS = 5
FAILURES_KEPT = 10


def settle_heap() -> None:
    """Collect, then park every survivor outside the collector.

    The harness keeps every plan and response alive for checking; left
    in the collector's reach they make each full collection scan the
    whole run's history, and 35-120 ms pauses land in random slices.
    After this, a collection inside a slice scans only what the slice
    itself allocated.
    """
    gc.collect()
    gc.freeze()


def capacity_of(case: Case) -> Any:
    target = case.group if case.group is not None else case.device
    return target.usable_memory_floats


def compile_case(case: Case, graph: Any, cache: PlanCache | bool = False) -> Any:
    if case.group is not None:
        return repro.compile(
            graph, group=case.group, host=case.host, options=case.options,
            plan_cache=cache,
        )
    return repro.compile(
        graph, device=case.device, host=case.host, options=case.options,
        plan_cache=cache,
    )


class Lifecycle:
    def __init__(
        self,
        workload: Workload,
        seconds: float,
        rec: Recorder | None = None,
        quick: bool = False,
    ) -> None:
        self.wl = workload
        self.seconds = seconds
        self.rec = rec
        #: one round, one set-up (``--smoke``)
        self.quick = quick
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, int] = {}
        self.metrics: dict[str, float] = {}
        #: phase -> context manager factory a traced run installs around
        #: that phase's calls into the layers (``bench.layers``)
        self.instrument: dict[str, Callable[[], Any]] = {}
        #: reference-kernel samples at the boundaries between slices;
        #: interval k lies between boundaries k and k + 1
        self.boundaries: list[dict[str, float]] = []
        # raw observations as (interval, value); the per-layer table is
        # derived from them too
        self.graphs: dict[str, Any] = {}
        self.inputs: dict[str, Any] = {}
        self.compiled: dict[str, Any] = {}
        self.setup_seconds: list[tuple[int, float]] = []
        self.cold_seconds: dict[str, list[tuple[int, float]]] = {
            c.name: [] for c in workload.compile}
        self.warm_seconds: list[tuple[int, float]] = []
        self.delta_edits: list[tuple[int, float, int, int]] = []
        self.pb_rows: list[tuple[float, Any]] = []
        self.pb_gaps: list[float] = []
        self.numeric_seconds: dict[str, list[tuple[int, float]]] = {
            c.name: [] for c in workload.numeric}
        self.numeric_results: dict[str, Any] = {}
        self.numeric_wants: dict[str, Any] = {}
        self.analytic_seconds: dict[str, list[tuple[int, float]]] = {
            c.name: [] for c in workload.analytic}
        self.analytic_first: dict[str, float] = {}
        self.closed_rps: list[tuple[int, float]] = []
        self.traced_rps: list[tuple[int, float]] = []
        self.traced_sent: list[Sent] = []
        self.open_slices: list[tuple[int, list[Sent]]] = []
        self.unchecked: list[Sent] = []
        self.build_seconds = 0.0
        self.forest_cold_seconds = 0.0
        self.service_start_seconds = 0.0
        self.svc: Any = None
        self.mix: Mix | None = None
        self.warm_cache: PlanCache | None = None
        self.forest_fw: Framework | None = None
        self.snapshot: dict[str, Any] = {}
        self.snapshot_us = self.prom_text_us = 0.0
        self.phase_seconds: dict[str, float] = dict.fromkeys(("setup",) + PHASES, 0.0)
        #: never-seen templates re-compiled directly for a digest compare
        self._miss_digests_left = 8
        self._expected_cache: dict[str, Any] | None = None
        forest = workload.forest
        self._edits = [(j, op) for op in ("add", "absmax")
                       for j in range(forest.n_branches)]
        random.Random(workload.seed).shuffle(self._edits)

    # -- bookkeeping -----------------------------------------------------
    def op(self, ok: bool, what: str = "") -> bool:
        """Count one attempted operation; a false ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < FAILURES_KEPT:
                self.failures.append(what)
        return ok

    def problems(self, found: list[str], what: str) -> None:
        self.op(not found, f"{what}: {'; '.join(found[:3])}")

    def _instrumented(self, phase: str) -> Any:
        return self.instrument.get(phase, contextlib.nullcontext)()

    # -- reference seconds -----------------------------------------------
    def tick(self) -> None:
        """Close the current interval with a reference-kernel sample,
        taken on a settled heap so that the kernel's own collections
        scan nothing the run has left behind."""
        settle_heap()
        self.boundaries.append(reference.sample())

    @property
    def interval(self) -> int:
        return len(self.boundaries) - 1

    def scale(self, interval: int, kind: str = "py") -> float:
        """Reference seconds per measured second inside ``interval``."""
        before, after = self.boundaries[interval], self.boundaries[interval + 1]
        return reference.NOMINAL[kind] / ((before[kind] + after[kind]) / 2.0)

    def scaled(self, samples: Any, kind: str = "py") -> list[float]:
        return [value * self.scale(k, kind) for k, value in samples]

    # -- set-up ----------------------------------------------------------
    def setup(self) -> None:
        """Everything a run needs before its first timed operation:
        templates and inputs built, run-phase plans compiled, the forest
        cache filled, the service started and warmed."""
        wl = self.wl
        t0 = time.perf_counter()
        cases = {c.name: c for c in
                 wl.compile + wl.numeric + wl.analytic + wl.twins}
        self.graphs = {name: c.build() for name, c in cases.items()}
        self.build_seconds = time.perf_counter() - t0
        self.inputs = {
            c.name: c.inputs() for c in cases.values() if c.inputs is not None
        }
        self.compiled = {
            c.name: compile_case(c, self.graphs[c.name])
            for c in wl.numeric + wl.analytic
        }
        forest = wl.forest
        self.forest_fw = Framework(
            forest.device, options=forest.options,
            plan_cache=PlanCache(max_entries=256),
        )
        t0 = time.perf_counter()
        self.forest_fw.compile_incremental(edge_forest_graph(**forest.spec()))
        self.forest_cold_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        self.svc = start_service(wl.serve)
        self.service_start_seconds = time.perf_counter() - t0
        self.mix = Mix(wl.serve, wl.seed)
        self.unchecked = self.mix.take(wl.serve.warmup)
        closed_loop(self.svc, self.unchecked)

    def teardown(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None

    # -- one slice of each phase -----------------------------------------
    def slice_cold(self, round_no: int) -> None:
        """Cold compile: the first compile of a template through an
        empty plan cache; the next ``per_round`` templates in turn."""
        cases = self.wl.compile
        per_round = self.wl.per_round["cold"]
        for k in range(round_no * per_round, (round_no + 1) * per_round):
            case = cases[k % len(cases)]
            self.compiled.pop(case.name, None)
            if k % per_round:
                self.tick()  # a reference sample beside every compile
            cache = PlanCache()
            t0 = time.perf_counter()
            compiled = compile_case(case, self.graphs[case.name], cache)
            self.cold_seconds[case.name].append(
                (self.interval, time.perf_counter() - t0))
            self.compiled[case.name] = compiled
            self.op(True)
            if case is cases[0]:
                self.warm_cache = cache

    def slice_warm(self, _round_no: int) -> None:
        """Warm compile: the same template again, a plan-cache hit."""
        case = self.wl.compile[0]
        fw = Framework(case.device, host=case.host, options=case.options,
                       plan_cache=self.warm_cache)
        graph = self.graphs[case.name]
        cold_plan = self.compiled[case.name].plan
        for _ in range(self.wl.per_round["warm"]):
            t0 = time.perf_counter()
            warm = fw.compile(graph)
            self.warm_seconds.append((self.interval, time.perf_counter() - t0))
            self.op(warm.plan is cold_plan, "warm compile did not hit the cache")

    def slice_delta(self, _round_no: int) -> None:
        """Delta compile: distinct one-branch edits of the forest
        through ``compile_incremental``; all other fragments are reused."""
        forest = self.wl.forest
        for _ in range(self.wl.per_round["delta"]):
            if len(self.delta_edits) == len(self._edits):
                return
            branch, op = self._edits[len(self.delta_edits)]
            edited = edge_forest_graph(
                **forest.spec(), branch_combine={branch: op}
            )
            t0 = time.perf_counter()
            result = self.forest_fw.compile_incremental(edited)
            seconds = time.perf_counter() - t0
            self.op(
                result.reused_fragments == result.total_fragments - 1,
                f"delta edit replanned "
                f"{result.total_fragments - result.reused_fragments} fragments",
            )
            if not self.delta_edits:
                stitched = result.compiled
                self.problems(
                    check.check_plan(
                        stitched.plan, stitched.graph,
                        forest.device.usable_memory_floats,
                        transfer_floats=stitched.transfer_floats(),
                    ),
                    "stitched delta plan",
                )
            self.delta_edits.append(
                (self.interval, seconds, result.total_fragments,
                 result.reused_fragments)
            )

    def slice_pb(self, _round_no: int) -> None:
        """Heuristic (DFS + Belady through ``repro.compile``) against the
        PB optimum on the next members of the small random family."""
        todo = self.wl.pb[len(self.pb_rows):][: self.wl.per_round["pb"]]
        for member_seed, n_ops in todo:
            graph = random_template(random.Random(member_seed), n_ops)
            cap = max(graph.max_footprint(), 5)
            device = GpuDevice(name="bench-pb", memory_bytes=4 * cap,
                               memory_reserve=1.0)
            heuristic = repro.compile(
                graph, device=device, plan_cache=False,
                options=repro.CompileOptions(split_headroom=1.0),
            ).transfer_floats()
            t0 = time.perf_counter()
            with self._instrumented("pb"):
                exact = pb_optimal_plan(graph, cap)
            self.pb_rows.append((time.perf_counter() - t0, exact))
            self.problems(
                check.check_plan(exact.plan, graph, cap,
                                 transfer_floats=exact.transfer_floats),
                f"PB plan rand{n_ops}/{member_seed}",
            )
            self.op(exact.transfer_floats <= heuristic,
                    "PB optimum worse than the heuristic")
            self.pb_gaps.append(heuristic / max(exact.transfer_floats, 1))

    def slice_numeric(self, round_no: int) -> None:
        """``repro.execute`` on the simulated device, each run compared
        bit for bit with the host reference interpreter."""
        # The first run of an operator kind pays numpy's lazy set-up (up
        # to 7x the steady time measured), so one pass goes untimed.
        warm_up = round_no == 0 and not self.quick
        for i in range(self.wl.per_round["numeric"] + warm_up):
            for case in self.wl.numeric:
                compiled = self.compiled[case.name]
                if case.name not in self.numeric_wants:
                    # Bit equality holds against the reference run of the
                    # *same* (split) graph; against the unsplit template
                    # einsum's summation order differs in the last bit.
                    self.numeric_wants[case.name] = reference_execute(
                        compiled.graph, self.inputs[case.name])
                t0 = time.perf_counter()
                result = repro.execute(compiled, self.inputs[case.name])
                if i or not warm_up:
                    self.numeric_seconds[case.name].append(
                        (self.interval, time.perf_counter() - t0))
                self.numeric_results[case.name] = result
                self.op(
                    check.outputs_equal(result.outputs,
                                        self.numeric_wants[case.name]),
                    f"{case.name}: execute output differs from reference",
                )

    def slice_analytic(self, round_no: int) -> None:
        """``repro.simulate`` (sizes only) — must repeat exactly."""
        warm_up = round_no == 0 and not self.quick
        for i in range(self.wl.per_round["analytic"] + warm_up):
            for case in self.wl.analytic:
                compiled = self.compiled[case.name]
                t0 = time.perf_counter()
                run = repro.simulate(compiled)
                if i or not warm_up:
                    self.analytic_seconds[case.name].append(
                        (self.interval, time.perf_counter() - t0))
                first = self.analytic_first.setdefault(case.name, run.total_time)
                self.op(
                    first == run.total_time
                    and run.transfer_floats == compiled.transfer_floats(),
                    f"{case.name}: simulate disagrees with itself or the plan",
                )

    def slice_closed(self, _round_no: int) -> None:
        """Closed loop, 2 clients; with a recorder, alternate blocks are
        traced so the tracing overhead is measured in the same run."""
        for _ in range(self.wl.per_round["closed"]):
            batch = self.mix.take(self.wl.serve.block)
            blocks = len(self.closed_rps) + len(self.traced_rps)
            if blocks % self.wl.per_round["closed"]:
                self.tick()
            if self.rec is not None and blocks % 2 == 1:
                with self._instrumented("serve"):
                    rps = closed_loop(self.svc, batch, self.rec)
                self.traced_rps.append((self.interval, rps))
                self.traced_sent.extend(batch)
            else:
                self.closed_rps.append(
                    (self.interval, closed_loop(self.svc, batch)))
            self.unchecked.extend(batch)

    def slice_open(self, _round_no: int) -> None:
        """Open loop at the workload's fixed rate."""
        batch = self.mix.take(self.wl.per_round["open"])
        open_loop(self.svc, batch, self.wl.serve.rate)
        self.open_slices.append((self.interval, batch))
        self.unchecked.extend(batch)

    # -- what the rounds add up to ---------------------------------------
    def finish_metrics(self) -> None:
        """Medians of the rounds' samples, in reference seconds."""
        m, n = self.metrics, self.samples

        def total(per_case: dict[str, list], kind: str = "py") -> float:
            return sum(median(self.scaled(v, kind)) for v in per_case.values())

        def count(per_case: dict[str, list]) -> int:
            return sum(len(v) for v in per_case.values())

        m["setup_s"] = median(self.scaled(self.setup_seconds))
        n["setup_s"] = len(self.setup_seconds)
        m["compile_cold_s"] = total(self.cold_seconds)
        n["compile_cold_s"] = count(self.cold_seconds)
        m["compile_warm_ms"] = median(self.scaled(self.warm_seconds)) * 1e3
        n["compile_warm_ms"] = len(self.warm_seconds)
        m["compile_delta_s"] = median(
            self.scaled([e[:2] for e in self.delta_edits]))
        n["compile_delta_s"] = len(self.delta_edits)
        m["plan_pb_gap"] = mean(self.pb_gaps)
        n["plan_pb_gap"] = len(self.pb_gaps)
        # repro.execute spends its time in the numpy operator kernels
        m["run_numeric_s"] = total(self.numeric_seconds, "np")
        n["run_numeric_s"] = count(self.numeric_seconds)
        m["run_analytic_s"] = total(self.analytic_seconds)
        n["run_analytic_s"] = count(self.analytic_seconds)
        m["serve_rps"] = median(
            rps / self.scale(k) for k, rps in self.closed_rps)
        n["serve_rps"] = len(self.closed_rps)
        # per slice, then the median over slices: one slow episode moves
        # one slice, not a pooled sample
        m["serve_p50_ms"] = median(
            percentile([s.latency for s in batch], 50) * self.scale(k)
            for k, batch in self.open_slices) * 1e3
        n["serve_p50_ms"] = sum(len(b) for _, b in self.open_slices)

    def plan_quality(self) -> None:
        """Simulated quality of every plan the workload holds."""
        ratios, sims = [], []
        for name, compiled in self.compiled.items():
            ratios.append(
                compiled.transfer_floats() / self.graphs[name].io_size()
            )
            sims.append(repro.simulate(compiled).total_time)
        self.samples["plan_sim_s"] = len(sims)
        self.metrics["plan_transfer_x_lb"] = geomean(ratios)
        self.metrics["plan_sim_s"] = geomean(sims)
        simulate_events = resolve("repro.runtime:simulate_plan_events")
        small = {c.name: c for c in self.wl.numeric + self.wl.analytic
                 if c.events and c.device is not None}
        hidden = [
            simulate_events(
                self.compiled[name].plan, self.compiled[name].graph,
                c.device, c.host,
            ).hidden_transfer_fraction
            for name, c in small.items()
        ]
        self.metrics["plan_hidden_share"] = mean(hidden)

    # -- output checks ---------------------------------------------------
    def check_responses(self) -> None:
        """Each returned plan against a direct ``repro.compile`` of the
        same template; each ``execute`` output against the reference."""
        expected = self._expected()
        digests: dict[int, str] = {}
        for sent in self.unchecked:
            response = sent.response
            if sent.error or response is None or not response.ok:
                self.op(False, f"request {sent.request.label}: "
                        f"{sent.error or getattr(response, 'error', 'no response')}")
                continue
            value, label = response.value, sent.request.label
            if sent.kind == "hit":
                digest = digests.get(id(value.plan))
                if digest is None:
                    digest = digests[id(value.plan)] = check.plan_digest(value.plan)
                self.op(digest == expected[label]["digest"],
                        f"served plan for {label} differs from direct compile")
            elif sent.kind == "miss":
                found = check.check_plan(
                    value.plan, value.graph,
                    sent.request.device.usable_memory_floats,
                    transfer_floats=value.transfer_floats(),
                )
                if not found and self._miss_digests_left > 0:
                    self._miss_digests_left -= 1
                    direct = repro.compile(
                        sent.request.template, device=sent.request.device,
                        host=sent.request.host, options=sent.request.options,
                        plan_cache=False,
                    )
                    if check.plan_digest(direct.plan) != check.plan_digest(value.plan):
                        found = ["differs from direct compile"]
                self.problems(found, f"served plan {label}")
            elif sent.kind == "simulate":
                self.op(value.total_time == expected[label]["sim"],
                        f"served simulate of {label} differs")
            else:
                self.op(check.outputs_equal(value.outputs, expected["execute"]),
                        "served execute output differs from reference")
        self.unchecked = []

    def _expected(self) -> dict[str, Any]:
        if self._expected_cache is None:
            mix = self.mix
            out: dict[str, Any] = {}
            for label, template in mix.classes.items():
                direct = repro.compile(
                    template, device=mix.device, host=XEON_WORKSTATION,
                    plan_cache=False,
                )
                out[label] = {
                    "digest": check.plan_digest(direct.plan),
                    "sim": repro.simulate(direct).total_time,
                }
                if label == "rare":
                    out["execute"] = reference_execute(
                        direct.graph, mix.execute_inputs
                    )
            self._expected_cache = out
        return self._expected_cache

    def check_plans(self) -> None:
        """Independent walk of every plan held, and the numeric twins of
        the compile templates that are too big to execute."""
        cases = {c.name: c for c in
                 self.wl.compile + self.wl.numeric + self.wl.analytic}
        for name, compiled in self.compiled.items():
            self.problems(
                check.check_plan(
                    compiled.plan, compiled.graph, capacity_of(cases[name]),
                    transfer_floats=compiled.transfer_floats(),
                ),
                f"plan {name}",
            )
        for twin in self.wl.twins:
            self.problems(
                check.numeric_twin(
                    self.graphs[twin.name], self.inputs[twin.name],
                    twin.device, twin.options,
                ),
                f"twin {twin.name}",
            )

    def observe_service(self) -> None:
        """Counters of the live service, and (traced runs) what reading
        them costs — ``obs.live.snapshot.us`` / ``prom_text.us``."""
        self.snapshot = self.svc.live_snapshot()
        if self.rec is None:
            return

        def cost(read: Callable[[], Any]) -> float:
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                read()
                times.append(time.perf_counter() - t0)
            return median(times) * 1e6

        self.snapshot_us = cost(self.svc.live_snapshot)
        self.prom_text_us = cost(self.svc.prom_text)

    # -- the run ---------------------------------------------------------
    def run(self) -> None:
        started = time.perf_counter()
        reference.warm_up()
        self.tick()
        repeats = 1 if self.quick else SETUP_REPEATS
        for i in range(repeats):
            t0 = time.perf_counter()
            self.setup()
            self.setup_seconds.append((self.interval, time.perf_counter() - t0))
            self.tick()
            if i + 1 < repeats:
                self.teardown()
        self.phase_seconds["setup"] = time.perf_counter() - started
        # Set-up repetitions are measurements too: they come out of
        # --seconds.  Rounds beyond the least stop where the checks that
        # follow still fit.
        deadline = started + 0.8 * self.seconds
        rounds_started = time.perf_counter()
        rounds = 0
        try:
            while True:
                for phase in PHASES:
                    t0 = time.perf_counter()
                    getattr(self, f"slice_{phase}")(rounds)
                    self.phase_seconds[phase] += time.perf_counter() - t0
                    self.tick()
                rounds += 1
                per_round = (time.perf_counter() - rounds_started) / rounds
                least = 1 if self.quick else ROUNDS
                if rounds >= least and (
                    self.quick or time.perf_counter() + per_round > deadline
                ):
                    break
            if self.rec is not None and not self.traced_rps:
                self.slice_closed(rounds)  # a smoke run's one traced block
                self.tick()
            self.samples["rounds"] = rounds
            self.finish_metrics()
            for step in (self.plan_quality, self.check_responses,
                         self.check_plans):
                t0 = time.perf_counter()
                step()
                self.phase_seconds[step.__name__] = time.perf_counter() - t0
        finally:
            self.observe_service()
            self.teardown()
            gc.unfreeze()
        self.measured_seconds = time.perf_counter() - started
        self.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) / 1024.0
