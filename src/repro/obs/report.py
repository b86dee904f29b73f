"""Self-contained run reports from a :class:`~repro.obs.analyze.RunAnalysis`.

Renders the diagnosis layer's findings — residency curves, idle-gap and
overlap statistics, multi-GPU imbalance, the critical path, and the
transfer-attribution table — as a single Markdown document (the
``repro report`` surface) or a dependency-free HTML page wrapping the
same content.  Byte totals in the attribution table are printed
unrounded so the report is auditable against
``Profile.bytes_transferred()`` exactly.

The serving tier's two operator views render here too: a live ``/slo``
snapshot (``repro top``) and a dead shard's post-mortem
(``repro postmortem``).
"""

from __future__ import annotations

from typing import Any

from .analyze import RunAnalysis

#: at most this many points of the occupancy curve are tabulated; longer
#: curves are downsampled evenly (the JSON output keeps every point)
CURVE_POINTS = 32
_TOP_ROWS = 12


def _fmt_s(seconds: float) -> str:
    return f"{seconds * 1e3:.3f} ms"


def _fmt_bytes(nbytes: float) -> str:
    if nbytes >= 1 << 20:
        return f"{nbytes / (1 << 20):.2f} MiB"
    if nbytes >= 1 << 10:
        return f"{nbytes / (1 << 10):.2f} KiB"
    return f"{int(nbytes)} B"


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    out = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    out.extend("| " + " | ".join(r) + " |" for r in rows)
    return out


def _downsample(curve: list[tuple[float, int]]) -> list[tuple[float, int]]:
    if len(curve) <= CURVE_POINTS:
        return curve
    step = len(curve) / CURVE_POINTS
    picked = [curve[int(i * step)] for i in range(CURVE_POINTS)]
    if picked[-1] != curve[-1]:
        picked.append(curve[-1])
    return picked


def render_report(analysis: RunAnalysis, fmt: str = "md") -> str:
    """Render a run analysis as ``md`` or ``html``."""
    if fmt == "md":
        return _render_markdown(analysis)
    if fmt == "html":
        return _html(
            f"Run analysis — {analysis.label or 'unnamed run'}",
            _render_markdown(analysis),
        )
    raise ValueError(f"unknown report format {fmt!r} (use 'md' or 'html')")


def _render_markdown(analysis: RunAnalysis) -> str:
    lines: list[str] = [f"# Run analysis — {analysis.label or 'unnamed run'}"]
    if analysis.metadata:
        lines.append("")
        for key, value in sorted(analysis.metadata.items()):
            lines.append(f"- **{key}**: {value}")

    # -- summary ------------------------------------------------------------
    lines += ["", "## Summary", ""]
    crit = analysis.critical
    imb = analysis.imbalance
    rows = [
        ["devices", str(analysis.num_devices)],
        ["makespan", _fmt_s(imb.makespan)],
        ["critical device", f"gpu{crit.device} ({crit.dominant}-bound)"],
    ]
    if analysis.attribution is not None:
        rows.append(
            ["host transfer bytes", str(analysis.attribution.host_bytes())]
        )
        if analysis.attribution.peer_bytes():
            rows.append(
                ["peer transfer bytes", str(analysis.attribution.peer_bytes())]
            )
    lines += _table(["metric", "value"], rows)

    # -- residency ----------------------------------------------------------
    lines += ["", "## Residency & device occupancy", ""]
    for dev in analysis.devices:
        res = dev.residency
        lines += [
            f"### gpu{dev.device}",
            "",
            f"- peak occupancy: {res.peak_bytes} bytes "
            f"({_fmt_bytes(res.peak_bytes)})",
            f"- mean occupancy: {_fmt_bytes(res.mean_bytes)} over "
            f"{_fmt_s(res.horizon)}",
            f"- buffer lifetimes: {len(res.intervals)}",
            "",
            "Occupancy curve (simulated seconds, bytes in use):",
            "",
        ]
        curve_rows = [
            [f"{t:.6f}", str(b)] for t, b in _downsample(res.curve)
        ] or [["0.000000", "0"]]
        lines += _table(["t (s)", "bytes"], curve_rows)
        top = sorted(
            res.byte_seconds().items(), key=lambda kv: -kv[1]
        )[:_TOP_ROWS]
        if top:
            lines += ["", "Top buffers by resident byte-seconds:", ""]
            lines += _table(
                ["buffer", "byte-seconds"],
                [[name, f"{bs:.6g}"] for name, bs in top],
            )
        lines.append("")

    # -- idle gaps / overlap -------------------------------------------------
    lines += ["## Idle gaps & overlap", ""]
    gap_rows = []
    for dev in analysis.devices:
        ts = dev.timeline
        gap_rows.append(
            [
                f"gpu{dev.device}",
                _fmt_s(ts.span),
                _fmt_s(ts.busy),
                _fmt_s(ts.idle),
                _fmt_s(ts.largest_gap),
                f"{ts.overlap_efficiency:.2%}",
            ]
        )
    lines += _table(
        ["device", "span", "busy", "idle", "largest gap", "overlap eff."],
        gap_rows,
    )

    # -- imbalance (multi-GPU) ------------------------------------------------
    if analysis.num_devices > 1:
        lines += ["", "## Multi-GPU imbalance", ""]
        lines += _table(
            ["device", "busy", "finish"],
            [
                [f"gpu{i}", _fmt_s(b), _fmt_s(f)]
                for i, (b, f) in enumerate(zip(imb.busy, imb.finish))
            ],
        )
        lines.append(
            f"\nImbalance (max busy / mean busy): {imb.imbalance:.3f}"
        )

    # -- critical path --------------------------------------------------------
    lines += ["", "## Critical path", ""]
    lines.append(
        f"gpu{crit.device} finishes last at {_fmt_s(crit.finish)} "
        f"with {_fmt_s(crit.idle)} idle; time by stream:"
    )
    lines.append("")
    lines += _table(
        ["stream", "seconds"],
        [
            [kind, f"{secs:.6f}"]
            for kind, secs in sorted(
                crit.by_kind.items(), key=lambda kv: -kv[1]
            )
        ]
        or [["none", "0"]],
    )

    # -- transfer attribution -------------------------------------------------
    att = analysis.attribution
    if att is not None:
        lines += ["", "## Transfer attribution", ""]
        lines.append(
            f"Host transfer bytes: **{att.host_bytes()}** "
            f"(must equal the profiles' `bytes_transferred()`); "
            f"peer bytes: {att.peer_bytes()}."
        )
        lines += ["", "Per buffer (host transfers only):", ""]
        lines += _table(
            ["buffer", "bytes"],
            [
                [name, str(b)]
                for name, b in sorted(
                    att.by_buffer().items(), key=lambda kv: (-kv[1], kv[0])
                )
            ]
            or [["(none)", "0"]],
        )
        lines += ["", "Per reason class:", ""]
        lines += _table(
            ["reason", "bytes"],
            [
                [name, str(b)]
                for name, b in sorted(
                    att.by_reason().items(), key=lambda kv: (-kv[1], kv[0])
                )
            ]
            or [["(none)", "0"]],
        )
        lines += ["", "Per operator (top):", ""]
        op_rows = sorted(
            att.by_operator().items(), key=lambda kv: (-kv[1], kv[0])
        )[:_TOP_ROWS]
        lines += _table(
            ["operator", "bytes"],
            [[name, str(b)] for name, b in op_rows] or [["(none)", "0"]],
        )
        lines += ["", "Every transfer (step, device, cause):", ""]
        lines += _table(
            ["step", "device", "dir", "buffer", "bytes", "operator", "reason"],
            [
                [
                    str(r.step_index),
                    f"gpu{r.device}",
                    r.direction,
                    r.buffer,
                    str(r.nbytes),
                    r.operator or "-",
                    r.reason.replace("|", "\\|"),
                ]
                for r in att.records
            ]
            or [["-"] * 7],
        )
    lines.append("")
    return "\n".join(lines)


_HTML_SHELL = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
body {{ font-family: ui-monospace, monospace; max-width: 72rem;
       margin: 2rem auto; padding: 0 1rem; color: #1a1a1a; }}
pre {{ background: #f6f6f4; padding: 1rem; overflow-x: auto;
      border-radius: 6px; }}
</style>
</head>
<body>
<pre>
{body}
</pre>
</body>
</html>
"""


def _html(title: str, md: str) -> str:
    """Self-contained HTML wrapper around a Markdown rendering."""
    escaped = (
        md.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
    return _HTML_SHELL.format(title=title, body=escaped)


def report_to_dict(analysis: RunAnalysis) -> dict[str, Any]:
    """The ``repro report --format json`` body."""
    return analysis.to_dict()


# ---------------------------------------------------------------------------
# Live status (repro top)
# ---------------------------------------------------------------------------
def render_top(snap: dict[str, Any], url: str) -> str:
    """One screen of a status endpoint's ``/slo`` snapshot fetched from
    ``url``: load, latency window, plan cache, SLOs, alerts, shards."""
    window = snap.get("window", {})
    cache = snap.get("plan_cache", {})
    events = snap.get("events", {})
    lookups = (
        cache.get("hits", 0) + cache.get("disk_hits", 0)
        + cache.get("misses", 0)
    )
    hit_rate = (
        (cache.get("hits", 0) + cache.get("disk_hits", 0)) / lookups
        if lookups else 0.0
    )
    counters = snap.get("counters", {})
    lines = [f"repro top — {url}  "
             f"({'closed' if snap.get('closed') else 'serving'})"]
    fleet = ""
    if "shard_count" in snap:
        fleet = (f"   shards: {snap.get('live_shards', 0)}"
                 f"/{snap.get('shard_count', 0)} live")
    lines.append(f"  queue depth: {snap.get('queue_depth', 0)}   "
                 f"in flight: {snap.get('in_flight', 0)}   "
                 f"workers: {snap.get('workers', 0)}   "
                 f"submitted: {counters.get('service.submitted', 0):.0f}   "
                 f"completed: {counters.get('service.completed', 0):.0f}"
                 f"{fleet}")
    if counters.get("service.batches"):
        lines.append(f"  batching: {counters.get('service.batches', 0):.0f} "
                     f"batches, {counters.get('service.batch_joins', 0):.0f} "
                     f"joined requests")
    lines.append(f"  window ({window.get('window_seconds', 0):.0f}s): "
                 f"{window.get('count', 0)} done, "
                 f"{window.get('rate', 0.0):.2f} req/s, latency "
                 f"p50 {window.get('p50', 0.0) * 1e3:.2f}ms "
                 f"p95 {window.get('p95', 0.0) * 1e3:.2f}ms "
                 f"p99 {window.get('p99', 0.0) * 1e3:.2f}ms")
    lines.append(f"  plan cache: {cache.get('hits', 0)} mem + "
                 f"{cache.get('disk_hits', 0)} disk hits, "
                 f"{cache.get('misses', 0)} misses "
                 f"({hit_rate:.0%} hit-rate), {cache.get('entries', 0)} entries")
    for obj in snap.get("slo", {}).get("objectives", []):
        flag = "  ** BREACHED **" if obj.get("breached") else ""
        lines.append(f"  slo {obj.get('name')}: "
                     f"compliance {obj.get('compliance', 0.0):.4f} "
                     f"(target {obj.get('target', 0.0)}), "
                     f"budget remaining "
                     f"{obj.get('budget_remaining_fraction', 0.0):.0%}{flag}")
    alerts = snap.get("alerts", {})
    if alerts.get("rules"):
        active = alerts.get("active", [])
        for alert in active:
            detail = alert.get("description") or alert.get("rule_kind", "")
            lines.append(f"  ALERT {alert.get('rule')}: {detail}")
        if not active:
            lines.append(f"  alerts: {alerts.get('rules', 0)} rules, none "
                         f"firing (fired {alerts.get('fired_total', 0)}, "
                         f"resolved {alerts.get('resolved_total', 0)})")
    for shard in snap.get("shards", []):
        if shard.get("alive") is False:
            lines.append(
                f"  shard {shard.get('shard')}: DEAD — "
                f"{shard.get('exit_detail', 'exit status unknown')}"
                + (f", {shard['in_flight_at_death']} in flight at death"
                   if shard.get("in_flight_at_death") else "")
            )
            continue
        lines.append(
            f"  shard {shard.get('shard')}: "
            f"in_flight={shard.get('in_flight', 0)} "
            f"workers={shard.get('workers', 0)} "
            f"cache_entries={shard.get('plan_cache', {}).get('entries', 0)}"
        )
    lines.append(f"  events: {events.get('emitted', 0)} emitted, "
                 f"{events.get('dropped', 0)} dropped "
                 f"(ring {events.get('capacity', 0)})")
    flight = snap.get("flight")
    if flight:
        lines.append(f"  flight recorder: {flight.get('appended', 0)} "
                     f"journaled, {flight.get('rotated', 0)} rotations, "
                     f"{flight.get('evicted', 0)} evicted -> "
                     f"{flight.get('dir')}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shard post-mortems (repro postmortem)
# ---------------------------------------------------------------------------
def render_postmortem(pm: dict[str, Any], fmt: str = "md") -> str:
    """Render one :func:`repro.obs.flight.build_postmortem` dict.

    ``text`` is the terminal summary; ``md`` is the report surface;
    ``html`` wraps the same content in the dependency-free shell used by
    run reports.
    """
    if fmt == "text":
        return _render_postmortem_text(pm)
    if fmt == "md":
        return _render_postmortem_markdown(pm)
    if fmt == "html":
        return _html(f"Post-mortem — {pm.get('shard') or 'shard'}",
                     _render_postmortem_markdown(pm))
    raise ValueError(
        f"unknown report format {fmt!r} (use 'text', 'md' or 'html')"
    )


def _render_postmortem_text(pm: dict[str, Any]) -> str:
    shard = pm.get("shard") or pm.get("journal_dir") or "shard"
    clean = "clean shutdown" if pm.get("clean_shutdown") else "crash"
    window = pm.get("window") or {}
    lines = [
        f"post-mortem — {shard} ({clean}, "
        f"{pm.get('exit_detail', 'exit status unknown')})",
        f"  journal: {pm.get('records', 0)} records"
        + (f" in {len(pm.get('segments', []))} segments"
           if pm.get("segments") else ""),
        f"  final window ({window.get('window_seconds', 0):.0f}s): "
        f"{window.get('count', 0)} done "
        f"({window.get('ok', 0)} ok, {window.get('failed', 0)} failed), "
        f"p50 {window.get('p50', 0.0) * 1e3:.2f}ms "
        f"p99 {window.get('p99', 0.0) * 1e3:.2f}ms",
    ]
    in_flight = pm.get("in_flight", [])
    if in_flight:
        ids = ", ".join(str(e.get("request_id")) for e in in_flight)
        lines.append(f"  in flight at death: {ids}")
    for alert in pm.get("alerts_active", []):
        lines.append(f"  ALERT at death: {alert.get('rule')}")
    timeline = pm.get("timeline", [])
    if timeline:
        lines.append(f"  final timeline ({len(timeline)} events):")
        epoch = timeline[0].get("ts", 0.0)
        for e in timeline:
            rid = e.get("request_id")
            rid_s = f" #{rid}" if rid is not None else ""
            fields = e.get("fields") or {}
            detail = " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
            lines.append(f"    +{max(e.get('ts', 0.0) - epoch, 0.0):7.3f}s "
                         f"{e.get('kind', '?'):24s}{rid_s:>6} {detail}")
    return "\n".join(lines)


def _render_postmortem_markdown(pm: dict[str, Any]) -> str:
    shard = pm.get("shard") or "shard"
    lines: list[str] = [f"# Post-mortem — {shard}", ""]
    rows = [
        ["exit", str(pm.get("exit_detail", "unknown"))],
        ["clean shutdown", "yes" if pm.get("clean_shutdown") else "no"],
        ["journal records", str(pm.get("records", 0))],
        ["in-flight at death", str(len(pm.get("in_flight", [])))],
        ["active alerts at death", str(len(pm.get("alerts_active", [])))],
    ]
    if pm.get("journal_dir"):
        rows.append(["journal", str(pm["journal_dir"])])
    lines += _table(["field", "value"], rows)

    warnings = pm.get("warnings", [])
    if warnings:
        lines += ["", "## Journal warnings", ""]
        lines += [f"- {w}" for w in warnings]

    in_flight = pm.get("in_flight", [])
    if in_flight:
        lines += ["", "## In-flight requests", ""]
        lines += _table(
            ["request", "last event"],
            [
                [str(e.get("request_id")), str(e.get("last_kind", "?"))]
                for e in in_flight
            ],
        )

    window = pm.get("window") or {}
    lines += ["", "## Final window", ""]
    lines += _table(
        ["metric", "value"],
        [
            ["window", f"{window.get('window_seconds', 0):g} s"],
            ["completed", str(window.get("count", 0))],
            ["ok", str(window.get("ok", 0))],
            ["failed", str(window.get("failed", 0))],
            ["p50", _fmt_s(float(window.get("p50", 0.0)))],
            ["p95", _fmt_s(float(window.get("p95", 0.0)))],
            ["p99", _fmt_s(float(window.get("p99", 0.0)))],
        ],
    )

    alerts = pm.get("alerts_active", [])
    if alerts:
        lines += ["", "## Alerts firing at death", ""]
        lines += _table(
            ["rule", "detail"],
            [
                [
                    str(a.get("rule", "?")),
                    str(a.get("description", ""))
                    or str(a.get("rule_kind", "")),
                ]
                for a in alerts
            ],
        )

    timeline = pm.get("timeline", [])
    lines += ["", "## Final timeline", ""]
    if timeline:
        epoch = timeline[0].get("ts", 0.0)
        lines += _table(
            ["t (s)", "seq", "kind", "request", "fields"],
            [
                [
                    f"+{max(e.get('ts', 0.0) - epoch, 0.0):.3f}",
                    str(e.get("seq", "")),
                    str(e.get("kind", "")),
                    str(e.get("request_id", "") or "-"),
                    ", ".join(
                        f"{k}={v}"
                        for k, v in sorted((e.get("fields") or {}).items())
                    ).replace("|", "\\|") or "-",
                ]
                for e in timeline
            ],
        )
    else:
        lines.append("(no events recovered)")
    lines.append("")
    return "\n".join(lines)


__all__ = [
    "CURVE_POINTS",
    "render_postmortem",
    "render_report",
    "render_top",
    "report_to_dict",
]
