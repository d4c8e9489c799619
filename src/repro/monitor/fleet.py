"""FleetMonitor: watch a live (or recorded) fleet against SLO rules.

The monitor owns a :class:`~repro.metrics.TelemetryBridge` and a rule
set.  Two modes of feeding it:

- **live** — ``with monitor.attach(): ...`` around any
  :class:`~repro.harness.rack.EncodingRack` / ``encode_fleet`` /
  :class:`~repro.core.pipeline.InvisibleBits` work: the bridge rides the
  telemetry stream, and :meth:`FleetMonitor.sample` is called between
  phases (or on a timer);
- **offline** — :meth:`FleetMonitor.feed_jsonl` replays a ``--trace``
  file through the same bridge, which is how ``repro monitor watch``
  tails a run from another process.

Each :meth:`sample` takes a registry snapshot, advances every rule's
consecutive-violation streak, fires :class:`~repro.monitor.rules.Alert`
objects on the rising edge, and appends to the per-device health series.
Fired alerts are also emitted as telemetry ``alert`` records, so the
run's own sinks (JSONL trace, console) carry them — no second transport.
"""

from __future__ import annotations

import json
import pathlib
from collections import deque
from contextlib import contextmanager

from .. import metrics, telemetry
from .rules import Alert, AlertRule, default_slo_rules, reduce_metric

__all__ = ["FleetMonitor", "WATCHED_METRICS"]

#: (metric, reduce) pairs every monitor tracks for trends, beyond
#: whatever its rules reference.
WATCHED_METRICS: "tuple[tuple[str, str], ...]" = (
    ("repro_raw_ber", "max"),
    ("repro_vote_margin", "mean"),
    ("repro_capture_ber", "mean"),
    ("repro_captures_total", "sum"),
    ("repro_receives_total", "sum"),
    ("repro_ecc_corrections_total", "sum"),
    ("repro_escalation_captures_total", "sum"),
    ("repro_retry_attempts_total", "sum"),
    ("repro_faults_injected_total", "sum"),
    ("repro_slots_failed_total", "sum"),
    ("repro_slots_quarantined_total", "sum"),
)


class _RuleState:
    """Streak/active bookkeeping for one rule."""

    __slots__ = ("rule", "streak", "active", "last_value")

    def __init__(self, rule: AlertRule):
        self.rule = rule
        self.streak = 0
        self.active = False
        self.last_value: "float | None" = None

    def evaluate(
        self, snapshot: dict, previous: "dict | None", sample: int
    ) -> "Alert | None":
        rule = self.rule
        value = rule.value(snapshot, previous)
        self.last_value = value
        if not rule.violated(value):
            self.streak = 0
            self.active = False
            return None
        self.streak += 1
        if self.streak < rule.for_n_samples or self.active:
            return None
        self.active = True
        return rule.alert(float(value), sample=sample)


class FleetMonitor:
    """Aggregate, watch and alert on a fleet of encoding devices.

    ``rules=None`` takes :func:`~repro.monitor.rules.default_slo_rules`.
    ``registry=None`` uses the process-wide default registry (so direct
    hot-path instruments are visible too); pass a fresh
    :class:`~repro.metrics.MetricsRegistry` to watch a recorded trace
    without touching global state.
    """

    def __init__(
        self,
        rules: "tuple[AlertRule, ...] | list[AlertRule] | None" = None,
        *,
        registry: "metrics.MetricsRegistry | None" = None,
    ):
        self.registry = registry if registry is not None else metrics.registry
        self.bridge = metrics.TelemetryBridge(self.registry)
        self.rules = tuple(rules) if rules is not None else default_slo_rules()
        self._states = [_RuleState(rule) for rule in self.rules]
        #: The previous sample's snapshot, for ``delta`` rules.
        self._previous: "dict | None" = None
        self.alerts: "list[Alert]" = []
        self.samples = 0
        self.series: "dict[tuple[str, str], deque]" = {}
        self.health: "dict[str, deque]" = {}
        self._watched = list(WATCHED_METRICS)
        for rule in self.rules:
            pair = (rule.metric, rule.reduce)
            if pair not in self._watched:
                self._watched.append(pair)

    # -- feeding -------------------------------------------------------------

    @contextmanager
    def attach(self):
        """Enable the registry and ride the telemetry stream.

        On exit the bridge detaches and the registry returns to its
        prior enabled state; collected values stay readable.
        """
        was_enabled = self.registry.enabled
        self.registry.enable()
        telemetry.add_sink(self.bridge)
        try:
            yield self
        finally:
            telemetry.remove_sink(self.bridge)
            if not was_enabled:
                self.registry.disable()

    def feed(self, records) -> int:
        """Replay an iterable of telemetry records through the bridge."""
        was_enabled = self.registry.enabled
        self.registry.enable()
        n = 0
        try:
            for record in records:
                self.bridge.emit(record)
                n += 1
        finally:
            if not was_enabled:
                self.registry.disable()
        return n

    def feed_jsonl(self, path, *, start: int = 0) -> int:
        """Replay a JSONL trace from byte offset ``start``; returns the
        new offset (pass it back to tail a growing file)."""
        path = pathlib.Path(path)
        records = []
        with path.open("r", encoding="utf-8") as handle:
            handle.seek(start)
            while True:
                line = handle.readline()
                if not line:
                    break
                if not line.endswith("\n"):
                    # A partial trailing line from a live writer: leave it
                    # for the next poll rather than mis-parsing half a record.
                    break
                start = handle.tell()
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
        self.feed(records)
        return start

    # -- sampling ------------------------------------------------------------

    def sample(self) -> "list[Alert]":
        """Snapshot the registry, advance every rule, fire new alerts."""
        snapshot = self.registry.snapshot()
        fired = []
        for state in self._states:
            alert = state.evaluate(snapshot, self._previous, self.samples)
            if alert is not None:
                fired.append(alert)
        for pair in self._watched:
            metric, reduce = pair
            value = reduce_metric(snapshot, metric, reduce)
            if value is not None:
                self.series.setdefault(pair, deque(maxlen=256)).append(value)
        self._update_health(snapshot)
        self._previous = snapshot
        self.samples += 1
        self.alerts.extend(fired)
        for alert in fired:
            telemetry.emit_record(alert.to_record())
        return fired

    def _update_health(self, snapshot: dict) -> None:
        entry = snapshot.get("metrics", {}).get("repro_raw_ber")
        if entry is None:
            return
        for series in entry.get("series", []):
            device = series.get("labels", {}).get("device")
            if device is None:
                continue
            self.health.setdefault(device, deque(maxlen=256)).append(
                float(series.get("value", 0.0))
            )

    # -- read side -----------------------------------------------------------

    def active_alerts(self) -> "list[AlertRule]":
        return [state.rule for state in self._states if state.active]

    def rule_states(self) -> "list[tuple[AlertRule, float | None, bool]]":
        """(rule, last reduced value, currently active) per rule."""
        return [
            (state.rule, state.last_value, state.active)
            for state in self._states
        ]

    def device_health(self) -> "dict[str, dict]":
        """Per-device raw-BER history with an SLO verdict.

        A device is ``alerting`` when any rule over ``repro_raw_ber``
        flags its latest value, ``ok`` otherwise.
        """
        ber_rules = [r for r in self.rules if r.metric == "repro_raw_ber"]
        out = {}
        for device, values in sorted(self.health.items()):
            latest = values[-1]
            alerting = any(rule.violated(latest) for rule in ber_rules)
            out[device] = {
                "raw_ber": latest,
                "history": list(values),
                "status": "alerting" if alerting else "ok",
            }
        return out

    def latency_breakdown(self) -> "dict[str, dict]":
        """Per-span request-path latency from the bridge's histogram.

        Keys are span names (``service.submit``, ``lane.capture``, ...);
        each value carries ``count``, ``mean_ms`` and the ``exemplar``
        trace id of the slowest populated bucket — paste it into
        ``repro trace show`` to see why that phase is hot.
        """
        snapshot = self.registry.snapshot()
        entry = snapshot.get("metrics", {}).get("repro_span_latency_seconds")
        out: "dict[str, dict]" = {}
        if entry is None:
            return out
        for series in entry.get("series", []):
            span = series.get("labels", {}).get("span")
            count = float(series.get("count", 0.0))
            if span is None or not count:
                continue
            exemplar = None
            # Exemplars iterate in bucket-bound order; keep the last
            # (slowest) populated bucket's trace.
            for info in (series.get("exemplars") or {}).values():
                exemplar = info.get("trace_id")
            out[span] = {
                "count": int(count),
                "mean_ms": float(series.get("sum", 0.0)) / count * 1e3,
                "exemplar": exemplar,
            }
        return out

    def dashboard(self, width: int = 78) -> str:
        from .dashboard import render_dashboard

        return render_dashboard(self, width=width)

    def report(self, fmt: str = "markdown") -> str:
        from .dashboard import render_report

        return render_report(self, fmt=fmt)
