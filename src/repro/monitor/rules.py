"""Declarative SLO rules evaluated over metric snapshots.

An :class:`AlertRule` names a metric, how to reduce its labelled series
to one number (``max`` across devices, ``mean`` of a histogram, ...),
and a predicate that marks the reduced value as violating the SLO.  The
rule only *fires* once the predicate has held for ``for_n_samples``
consecutive snapshots — the standard "for:" debounce, so a single noisy
receive does not page anyone.

Rules are plain data plus a callable; the evaluation state machine
(consecutive-violation streaks, active/resolved transitions) lives in
:class:`repro.monitor.fleet.FleetMonitor`; service lanes instead judge
each batch alone with :meth:`AlertRule.violated` and :meth:`AlertRule.alert`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..errors import ConfigurationError

__all__ = [
    "Alert",
    "AlertRule",
    "ceiling_rule",
    "default_slo_rules",
    "floor_rule",
    "reduce_metric",
]

_REDUCERS = ("max", "min", "sum", "mean")


def _series_values(metric: dict) -> "list[tuple[tuple, float]]":
    """(label-key, value) per series; histograms reduce to their mean."""
    out = []
    for entry in metric.get("series", []):
        key = tuple(sorted(entry.get("labels", {}).items()))
        if "buckets" in entry:
            count = entry.get("count", 0.0)
            if count <= 0:
                continue
            out.append((key, entry.get("sum", 0.0) / count))
        else:
            out.append((key, entry.get("value", 0.0)))
    return out


def reduce_metric(
    snapshot: dict,
    metric: str,
    reduce: str = "max",
    *,
    previous: "dict | None" = None,
    delta: bool = False,
) -> "float | None":
    """One number for ``metric`` out of a registry snapshot.

    ``delta=True`` evaluates the per-series change since ``previous``
    (series absent there count from zero) — how rate budgets like
    "retries per sample window" are expressed.  Returns ``None`` when
    the metric is absent or has no observations yet.
    """
    if reduce not in _REDUCERS:
        raise ConfigurationError(
            f"reduce must be one of {_REDUCERS}, got {reduce!r}"
        )
    entry = snapshot.get("metrics", {}).get(metric)
    if entry is None:
        return None
    values = _series_values(entry)
    if delta:
        prior = {}
        if previous is not None:
            prior_entry = previous.get("metrics", {}).get(metric)
            if prior_entry is not None:
                prior = dict(_series_values(prior_entry))
        values = [(key, value - prior.get(key, 0.0)) for key, value in values]
    if not values:
        return None
    numbers = [value for _, value in values]
    if reduce == "max":
        return max(numbers)
    if reduce == "min":
        return min(numbers)
    if reduce == "sum":
        return float(sum(numbers))
    return float(sum(numbers)) / len(numbers)


@dataclass(frozen=True)
class Alert:
    """One fired rule: what crossed which line, and when."""

    rule: str
    severity: str
    metric: str
    value: float
    sample: int
    message: str
    ts: float = field(default_factory=time.time)

    def to_record(self) -> dict:
        """The telemetry record shape alerts are emitted as."""
        return {
            "type": "alert",
            "name": self.rule,
            "ts": self.ts,
            "severity": self.severity,
            "metric": self.metric,
            "value": self.value,
            "sample": self.sample,
            "message": self.message,
        }


class AlertRule:
    """One SLO: ``predicate(reduce(metric))`` must not hold for
    ``for_n_samples`` consecutive snapshots.

    ``delta=True`` evaluates the change since the previous snapshot
    instead of the absolute value (budgets over counters).  ``describe``
    feeds the alert message; keep it human ("raw BER above 0.2").
    """

    def __init__(
        self,
        name: str,
        metric: str,
        predicate,
        *,
        for_n_samples: int = 1,
        severity: str = "page",
        reduce: str = "max",
        delta: bool = False,
        description: str = "",
    ):
        if not name:
            raise ConfigurationError("rule needs a name")
        if not callable(predicate):
            raise ConfigurationError(f"predicate must be callable: {predicate!r}")
        if for_n_samples < 1:
            raise ConfigurationError(
                f"for_n_samples must be >= 1, got {for_n_samples}"
            )
        if reduce not in _REDUCERS:
            raise ConfigurationError(
                f"reduce must be one of {_REDUCERS}, got {reduce!r}"
            )
        if severity not in ("page", "warn", "info"):
            raise ConfigurationError(
                f"severity must be page/warn/info, got {severity!r}"
            )
        self.name = name
        self.metric = metric
        self.predicate = predicate
        self.for_n_samples = int(for_n_samples)
        self.severity = severity
        self.reduce = reduce
        self.delta = bool(delta)
        self.description = description

    def value(
        self, snapshot: dict, previous: "dict | None" = None
    ) -> "float | None":
        return reduce_metric(
            snapshot,
            self.metric,
            self.reduce,
            previous=previous,
            delta=self.delta,
        )

    def violated(self, value: "float | None") -> bool:
        return value is not None and bool(self.predicate(value))

    def alert(self, value: float, *, sample: int) -> Alert:
        """The :class:`Alert` this rule fires at ``value``."""
        return Alert(
            rule=self.name,
            severity=self.severity,
            metric=self.metric,
            value=value,
            sample=sample,
            message=self.message_for(value),
        )

    def message_for(self, value: float) -> str:
        detail = f" ({self.description})" if self.description else ""
        kind = "delta " if self.delta else ""
        return (
            f"{self.metric} {kind}{self.reduce}={value:.6g} "
            f"violates {self.name}{detail}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AlertRule({self.name!r}, {self.metric!r}, "
            f"reduce={self.reduce!r}, for_n_samples={self.for_n_samples})"
        )


def ceiling_rule(
    name: str, metric: str, limit: float, **kwargs
) -> AlertRule:
    """Fire when the reduced value climbs above ``limit``."""
    kwargs.setdefault("description", f"must stay <= {limit:g}")
    return AlertRule(name, metric, lambda value: value > limit, **kwargs)


def floor_rule(name: str, metric: str, limit: float, **kwargs) -> AlertRule:
    """Fire when the reduced value drops below ``limit``."""
    kwargs.setdefault("description", f"must stay >= {limit:g}")
    return AlertRule(name, metric, lambda value: value < limit, **kwargs)


def default_slo_rules(
    *,
    raw_ber_ceiling: float = 0.20,
    vote_margin_floor: float = 1.5,
    retry_budget: float = 25.0,
    quarantine_budget: float = 0.0,
    for_n_samples: int = 1,
) -> "tuple[AlertRule, ...]":
    """The paper-shaped SLO set (docs/metrics.md):

    - ``raw-ber-ceiling``: worst per-device raw BER past the point the
      Table 4 coding budget can absorb;
    - ``vote-margin-floor``: mean majority-vote margin collapsing toward
      a coin flip;
    - ``retry-budget``: transient-fault retries spent since the previous
      sample exceed the budget (a flapping debug port, not one glitch);
    - ``quarantine-budget``: more slots pulled by the health ledger than
      the fleet plan allows.
    """
    return (
        ceiling_rule(
            "raw-ber-ceiling",
            "repro_raw_ber",
            raw_ber_ceiling,
            reduce="max",
            severity="page",
            for_n_samples=for_n_samples,
        ),
        floor_rule(
            "vote-margin-floor",
            "repro_vote_margin",
            vote_margin_floor,
            reduce="mean",
            severity="warn",
            for_n_samples=for_n_samples,
        ),
        ceiling_rule(
            "retry-budget",
            "repro_retry_attempts_total",
            retry_budget,
            reduce="sum",
            delta=True,
            severity="warn",
            for_n_samples=for_n_samples,
        ),
        ceiling_rule(
            "quarantine-budget",
            "repro_slots_quarantined_total",
            quarantine_budget,
            reduce="sum",
            severity="page",
            for_n_samples=for_n_samples,
        ),
    )
