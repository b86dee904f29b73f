"""Live telemetry plane: event bus, rolling windows, exporters.

Where the rest of :mod:`repro.obs` is *post-hoc* (spans, snapshots,
reports produced after a run), ``repro.obs.live`` is the **push-based**
layer a serving tier is operated with:

* :mod:`~repro.obs.live.events` — :class:`EventLog`, a bounded ring of
  typed, timestamped, request-correlated events, with an ambient
  :func:`bind`/:func:`publish` context so every layer (service, compile,
  plan cache, simulator) reports into one end-to-end request trace;
* :mod:`~repro.obs.live.windows` — :class:`SlidingWindow` rolling
  percentiles/rates and :class:`SloTracker` error-budget accounting;
* :mod:`~repro.obs.live.alerts` — :class:`AlertEngine`, declarative
  threshold / budget-burn rules over those windows, with firing and
  resolved transitions published as events;
* :mod:`~repro.obs.live.promtext` — Prometheus text-format exposition;
* :mod:`~repro.obs.live.server` — the stdlib HTTP status endpoint
  (``/metrics``, ``/slo``, ``/requests``, ``/healthz``) behind
  ``repro serve --status-port`` and ``repro top``.

Like its parent package, nothing here imports ``repro.core`` /
``repro.gpusim`` / ``repro.service`` — the contract is callables and
plain dicts.
"""

from .alerts import AlertEngine, AlertRule, default_alert_rules
from .events import (
    EventLog,
    TelemetryEvent,
    bind,
    current_request_id,
    publish,
    timeline_to_chrome,
)
from .promtext import PROM_NAME_RE, PromText, prom_name, registry_to_prom
from .server import StatusServer
from .windows import (
    SlidingWindow,
    SloObjective,
    SloTracker,
    default_objectives,
)

__all__ = [
    "PROM_NAME_RE",
    "AlertEngine",
    "AlertRule",
    "EventLog",
    "PromText",
    "SlidingWindow",
    "SloObjective",
    "SloTracker",
    "StatusServer",
    "TelemetryEvent",
    "bind",
    "current_request_id",
    "default_alert_rules",
    "default_objectives",
    "prom_name",
    "publish",
    "registry_to_prom",
    "timeline_to_chrome",
]
