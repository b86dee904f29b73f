"""Service tuning knobs.

Both dataclasses are frozen and keyword-only, matching the facade
conventions (:class:`repro.CompileOptions`); a config object is shared
by every worker thread, so immutability is load-bearing, not style.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim.faults import FaultSpec
from repro.obs.flight import DEFAULT_MAX_BYTES, DEFAULT_SEGMENT_BYTES
from repro.obs.live import AlertRule, SloObjective


@dataclass(frozen=True, kw_only=True)
class RetryPolicy:
    """Exponential backoff for transient substrate faults.

    Attempt *n* (1-based) sleeps ``backoff_base * multiplier**(n-1)``
    seconds before retrying, capped at ``backoff_max``.  ``max_attempts``
    bounds total tries (first attempt included), after which the request
    fails with the last fault as its error.
    """

    max_attempts: int = 5
    backoff_base: float = 0.005
    backoff_multiplier: float = 2.0
    backoff_max: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff durations must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Seconds to sleep after failed attempt ``attempt`` (1-based)."""
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_multiplier ** (attempt - 1),
        )


@dataclass(frozen=True, kw_only=True)
class ServiceConfig:
    """Everything an :class:`~repro.service.ExecutionService` can tune.

    * ``workers`` — worker-thread count (service concurrency).
    * ``max_queue_depth`` — admission control: ``submit()`` raises
      :class:`~repro.service.QueueFullError` beyond this many queued
      requests instead of buffering unboundedly.
    * ``default_deadline`` — seconds granted to requests that do not
      carry their own deadline (``None`` = no deadline).
    * ``retry`` — backoff schedule for injected/transient faults.
    * ``degrade_on_deadline`` — expired or pressured PB requests fall
      back to the heuristic planner instead of failing.
    * ``pb_max_ops`` — a ``planner="auto"`` request compiles with
      ``scheduler="pb"`` only if its template has at most this many
      operators (:meth:`~repro.service.ServiceRequest.compile_options`).
    * ``plan_cache_entries`` — size of the service's in-memory plan
      cache (the completed-request tier behind single-flight dedupe).
    * ``fault_spec`` — deterministic fault injection applied to every
      ``execute`` request's simulated runtime (demos, chaos tests).
    * ``batch_window`` — request-batching coalescing window in seconds:
      a worker dequeuing a request waits up to this long, gathering
      *compatible* queued requests (same template, device, resolved
      options, mode — i.e. the same batch key) and serves the whole
      batch from one compiled plan.  ``0`` (default) disables batching.
    * ``batch_max`` — upper bound on requests coalesced into one batch.
    * ``shared_cache_dir`` — directory of the **cross-process** plan
      cache (:class:`repro.core.plancache.SharedPlanCache`): a fleet's
      router and worker processes (and any other process pointed at the
      same directory) share compiled plans with stampede protection.
      ``None`` keeps the cache process-private.
    * ``shard_label`` — this process's name in ``live_snapshot()`` and
      its journal directory (a fleet names its router ``router`` and its
      worker processes ``proc/N``).
    * ``telemetry_events`` — capacity of the live telemetry event ring
      (:class:`repro.obs.live.EventLog`) and of the service tracer's
      span ring; ``0`` disables the event bus entirely (publishes become
      no-ops) and keeps no spans.
    * ``window_seconds`` — width of the rolling latency/throughput/SLO
      windows behind ``live_snapshot()`` and ``GET /metrics``.
    * ``slo_objectives`` — the service-level objectives tracked with
      error budgets; empty selects
      :func:`repro.obs.live.default_objectives` (99.9% availability,
      99% of requests under 1 s).
    * ``flight_dir`` — root directory of the crash-safe flight-recorder
      journal (:class:`repro.obs.flight.FlightRecorder`).  When set,
      every telemetry event is also appended to an on-disk CRC-framed
      journal under ``flight_dir/<shard_label>/`` so a killed shard can
      be post-mortemed (``repro postmortem``).  ``None`` (default)
      keeps telemetry in-memory only.
    * ``flight_segment_bytes`` / ``flight_max_bytes`` — journal segment
      rotation size and total retention bound (oldest segments evicted
      first).
    * ``alert_rules`` — declarative :class:`repro.obs.live.AlertRule`
      conditions evaluated over the rolling window and SLO budgets as
      requests complete; firing/resolved transitions are published as
      ``alert.*`` events.  Empty disables alert evaluation entirely.
    """

    workers: int = 4
    max_queue_depth: int = 64
    default_deadline: float | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    degrade_on_deadline: bool = True
    pb_max_ops: int = 12
    plan_cache_entries: int = 64
    fault_spec: FaultSpec | None = None
    batch_window: float = 0.0
    batch_max: int = 16
    shared_cache_dir: str | None = None
    shard_label: str = "local/0"
    telemetry_events: int = 4096
    window_seconds: float = 60.0
    slo_objectives: tuple[SloObjective, ...] = ()
    flight_dir: str | None = None
    flight_segment_bytes: int = DEFAULT_SEGMENT_BYTES
    flight_max_bytes: int = DEFAULT_MAX_BYTES
    alert_rules: tuple[AlertRule, ...] = ()

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ValueError("default_deadline must be positive or None")
        if self.batch_window < 0:
            raise ValueError("batch_window must be >= 0 seconds")
        if self.batch_max < 2:
            raise ValueError("batch_max must be >= 2 (a batch of one is "
                             "just a request)")
        if self.telemetry_events < 0:
            raise ValueError("telemetry_events must be >= 0")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.flight_segment_bytes < 64:
            raise ValueError("flight_segment_bytes must be >= 64")
        if self.flight_max_bytes < self.flight_segment_bytes:
            raise ValueError(
                "flight_max_bytes must be >= flight_segment_bytes"
            )


__all__ = ["RetryPolicy", "ServiceConfig"]
