"""Observability: tracing, metrics, trace export, and plan provenance.

The paper's whole evaluation rests on profiler evidence; ``repro.obs``
makes the reproduction equally measurable end to end:

* :mod:`repro.obs.trace` — structured wall-clock spans for every
  compilation phase;
* :mod:`repro.obs.metrics` — counters / gauges / histograms populated
  by the simulated runtime, the allocator, and the executor;
* :mod:`repro.obs.chrometrace` — Chrome trace-event / Perfetto JSON
  export of compile spans and the simulated device timeline;
* :mod:`repro.obs.provenance` — per-step reasons on execution plans,
  surfaced by ``repro explain``;
* :mod:`repro.obs.analyze` — the diagnosis layer: residency timelines,
  occupancy curves, idle-gap/overlap/critical-path analysis, multi-GPU
  imbalance, and byte-exact transfer attribution;
* :mod:`repro.obs.report` — self-contained Markdown/HTML rendering of a
  run analysis (``repro report``);
* :mod:`repro.obs.bench` — versioned benchmark-result schema, recorder,
  and the regression comparator behind ``repro bench-compare``;
* :mod:`repro.obs.live` — the push-based live telemetry plane: the
  request-correlated event bus, sliding-window/SLO aggregation, alert
  rules, the Prometheus text exporter, and the HTTP status endpoint;
* :mod:`repro.obs.flight` — the crash-safe flight recorder: a
  CRC-framed, segmented on-disk journal of the event bus, plus the
  post-mortem synthesis behind ``repro postmortem``.

This package sits at the bottom of the import graph: it never imports
``repro.core`` / ``repro.gpusim`` so every layer above can use it.
"""

from .analyze import (
    RunAnalysis,
    TransferAttribution,
    TransferRecord,
    analyze_run,
    attribute_transfers,
    critical_path,
    imbalance_stats,
    residency_timelines,
    timeline_stats,
)
from .bench import (
    BenchComparison,
    BenchRecorder,
    BenchResult,
    compare_dirs,
    compare_results,
    load_bench,
    render_comparisons,
    validate_bench_dict,
)
from .chrometrace import (
    chrome_trace,
    profile_to_events,
    simulated_to_events,
    spans_to_events,
    write_chrome_trace,
)
from .flight import (
    FlightRecorder,
    build_postmortem,
    harvest_postmortem,
    read_journal,
)
from .live import (
    AlertEngine,
    AlertRule,
    EventLog,
    SlidingWindow,
    SloObjective,
    SloTracker,
    StatusServer,
    TelemetryEvent,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .provenance import (
    StepExplanation,
    explain_plan,
    explain_to_dicts,
    provenance_summary,
    render_explain,
)
from .report import (
    render_postmortem,
    render_report,
    render_top,
    report_to_dict,
)
from .trace import Span, Tracer

__all__ = [
    "AlertEngine",
    "AlertRule",
    "BenchComparison",
    "BenchRecorder",
    "BenchResult",
    "Counter",
    "EventLog",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunAnalysis",
    "SlidingWindow",
    "SloObjective",
    "SloTracker",
    "Span",
    "StatusServer",
    "StepExplanation",
    "TelemetryEvent",
    "Tracer",
    "TransferAttribution",
    "TransferRecord",
    "analyze_run",
    "attribute_transfers",
    "build_postmortem",
    "chrome_trace",
    "compare_dirs",
    "compare_results",
    "critical_path",
    "explain_plan",
    "explain_to_dicts",
    "harvest_postmortem",
    "imbalance_stats",
    "load_bench",
    "profile_to_events",
    "provenance_summary",
    "read_journal",
    "render_comparisons",
    "render_explain",
    "render_postmortem",
    "render_report",
    "render_top",
    "report_to_dict",
    "residency_timelines",
    "simulated_to_events",
    "spans_to_events",
    "timeline_stats",
    "validate_bench_dict",
    "write_chrome_trace",
]
