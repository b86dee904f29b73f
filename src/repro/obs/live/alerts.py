"""Alert rules over the live windows: from dashboards to pagers.

:class:`~repro.obs.live.SlidingWindow` and
:class:`~repro.obs.live.SloTracker` compute the numbers; this module
decides when a human should look at them.  An :class:`AlertRule` is a
declarative predicate over one evaluation's snapshots:

* a **threshold** rule compares one window statistic (``p99``, ``mean``,
  ``rate``, ``count``, ...) against an ``above``/``below`` bound —
  "page when windowed p99 latency exceeds 500 ms";
* a **budget-burn** rule watches one SLO objective's remaining error
  budget — "page when the availability objective has burned more than
  half its budget".

:class:`AlertEngine` holds the rules plus the firing state machine.
Each :meth:`~AlertEngine.evaluate` classifies every rule as firing or
not and emits ``alert.firing`` / ``alert.resolved`` telemetry events on
the *transitions* only — an alert that stays red does not spam the
event bus, and because those events flow through the normal
:class:`~repro.obs.live.EventLog` they are teed into the flight
recorder's journal, so a post-mortem can answer "was anything already
on fire when the shard died?".

Stateless inputs, explicit state: the engine never reads clocks or
windows itself — callers pass snapshots in, which keeps evaluation
deterministic and trivially testable (and means one engine can serve
both a live service and a replayed journal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.obs.live.events import EventLog

#: window-snapshot statistics a threshold rule may watch
THRESHOLD_METRICS = (
    "count", "rate", "sum", "mean", "min", "max", "p50", "p95", "p99",
)
RULE_KINDS = ("threshold", "budget_burn")


@dataclass(frozen=True, kw_only=True)
class AlertRule:
    """One declarative firing condition.

    ``kind="threshold"`` watches ``metric`` (a
    :meth:`SlidingWindow.snapshot` key) and fires when it is strictly
    greater than ``above`` and/or strictly less than ``below``;
    ``min_count`` suppresses firing until the window holds at least
    that many samples, so one slow request on an idle shard does not
    page anyone.

    ``kind="budget_burn"`` watches the SLO ``objective`` by name and
    fires when its burned budget fraction (1 − remaining) strictly
    exceeds ``max_burn`` — or immediately on breach.
    """

    name: str
    kind: str = "threshold"
    # threshold rules
    metric: str = "p99"
    above: float | None = None
    below: float | None = None
    min_count: int = 1
    # budget-burn rules
    objective: str = ""
    max_burn: float = 0.5
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("alert rule needs a name")
        if self.kind not in RULE_KINDS:
            raise ValueError(
                f"kind must be one of {RULE_KINDS}, got {self.kind!r}"
            )
        if self.kind == "threshold":
            if self.metric not in THRESHOLD_METRICS:
                raise ValueError(
                    f"metric must be one of {THRESHOLD_METRICS}, "
                    f"got {self.metric!r}"
                )
            if self.above is None and self.below is None:
                raise ValueError(
                    "threshold rule needs at least one of above/below"
                )
            if self.min_count < 0:
                raise ValueError("min_count must be >= 0")
        else:
            if not self.objective:
                raise ValueError("budget_burn rule needs an objective name")
            if not 0.0 <= self.max_burn <= 1.0:
                raise ValueError("max_burn must be in [0, 1]")

    # -- evaluation ------------------------------------------------------
    def check(
        self,
        window: Mapping[str, Any] | None,
        slo: Mapping[str, Any] | None,
    ) -> tuple[bool, dict[str, Any]]:
        """(firing?, detail) for one evaluation's snapshots."""
        if self.kind == "threshold":
            if not window or window.get("count", 0) < self.min_count:
                return False, {}
            value = window.get(self.metric)
            if not isinstance(value, (int, float)):
                return False, {}
            firing = False
            detail: dict[str, Any] = {"metric": self.metric, "value": value}
            if self.above is not None and value > self.above:
                firing = True
                detail["above"] = self.above
            if self.below is not None and value < self.below:
                firing = True
                detail["below"] = self.below
            return firing, detail
        # budget_burn
        for obj in (slo or {}).get("objectives", []):
            if obj.get("name") != self.objective:
                continue
            remaining = float(obj.get("budget_remaining_fraction", 1.0))
            burn = 1.0 - remaining
            firing = bool(obj.get("breached")) or burn > self.max_burn
            return firing, {
                "objective": self.objective,
                "burn": burn,
                "max_burn": self.max_burn,
                "breached": bool(obj.get("breached")),
            }
        return False, {}

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "kind": self.kind}
        if self.kind == "threshold":
            out["metric"] = self.metric
            if self.above is not None:
                out["above"] = self.above
            if self.below is not None:
                out["below"] = self.below
            out["min_count"] = self.min_count
        else:
            out["objective"] = self.objective
            out["max_burn"] = self.max_burn
        if self.description:
            out["description"] = self.description
        return out


def default_alert_rules() -> tuple[AlertRule, ...]:
    """The stock serving alerts, matching
    :func:`repro.obs.live.default_objectives`: latency p99 over 1 s,
    and either SLO burning more than half its error budget."""
    return (
        AlertRule(
            name="latency_p99_high",
            metric="p99",
            above=1.0,
            min_count=5,
            description="windowed p99 latency above 1 s",
        ),
        AlertRule(
            name="availability_budget_burn",
            kind="budget_burn",
            objective="availability",
            max_burn=0.5,
            description="availability error budget more than half burned",
        ),
        AlertRule(
            name="latency_slo_budget_burn",
            kind="budget_burn",
            objective="latency_1s",
            max_burn=0.5,
            description="latency SLO error budget more than half burned",
        ),
    )


class AlertEngine:
    """Firing/resolved state machine over a rule set.

    Not internally locked: callers serialize :meth:`evaluate` (the
    execution service evaluates under its own alert lock, since any
    worker thread may complete the request that trips a rule).
    """

    def __init__(self, rules: tuple[AlertRule, ...] | list[AlertRule] = ()):
        self.rules = tuple(rules)
        names = [r.name for r in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate alert rule names: {names}")
        #: rule name -> detail dict of the firing evaluation
        self._active: dict[str, dict[str, Any]] = {}
        self.fired_total = 0
        self.resolved_total = 0

    def __bool__(self) -> bool:
        return bool(self.rules)

    def evaluate(
        self,
        window: Mapping[str, Any] | None,
        slo: Mapping[str, Any] | None,
        *,
        event_log: EventLog | None = None,
    ) -> list[dict[str, Any]]:
        """Re-classify every rule; emit transition events; return the
        currently-active alert list (same shape as :meth:`active`)."""
        for rule in self.rules:
            firing, detail = rule.check(window, slo)
            was_firing = rule.name in self._active
            if firing and not was_firing:
                # "rule_kind", not "kind": the event bus already uses
                # "kind" for the event type itself.
                record = {"rule": rule.name, "rule_kind": rule.kind, **detail}
                if rule.description:
                    record["description"] = rule.description
                self._active[rule.name] = record
                self.fired_total += 1
                if event_log is not None:
                    event_log.emit("alert.firing", **record)
            elif firing and was_firing:
                # refresh the measured value, keep the firing identity
                self._active[rule.name].update(detail)
            elif was_firing:
                record = self._active.pop(rule.name)
                self.resolved_total += 1
                if event_log is not None:
                    event_log.emit(
                        "alert.resolved", rule=rule.name, rule_kind=rule.kind
                    )
        return self.active()

    def active(self) -> list[dict[str, Any]]:
        """Currently-firing alerts, stable order by rule name."""
        return [dict(self._active[name]) for name in sorted(self._active)]

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready summary for ``live_snapshot()`` / ``/slo``."""
        return {
            "rules": len(self.rules),
            "active": self.active(),
            "fired_total": self.fired_total,
            "resolved_total": self.resolved_total,
        }


__all__ = [
    "AlertEngine",
    "AlertRule",
    "RULE_KINDS",
    "THRESHOLD_METRICS",
    "default_alert_rules",
]
