"""AlertRule / reduce_metric semantics over registry snapshots."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics import MetricsRegistry
from repro.monitor import (
    AlertRule,
    ceiling_rule,
    default_slo_rules,
    floor_rule,
    reduce_metric,
)


@pytest.fixture
def registry():
    reg = MetricsRegistry(enabled=True)
    return reg


def _snapshot_with_gauge(registry, name, **device_values):
    gauge = registry.gauge(name, labelnames=("device",))
    for device, value in device_values.items():
        gauge.set(value, device=device)
    return registry.snapshot()


class TestReduceMetric:
    def test_reducers(self, registry):
        snap = _snapshot_with_gauge(registry, "g", a=1.0, b=3.0)
        assert reduce_metric(snap, "g", "max") == 3.0
        assert reduce_metric(snap, "g", "min") == 1.0
        assert reduce_metric(snap, "g", "sum") == 4.0
        assert reduce_metric(snap, "g", "mean") == 2.0

    def test_absent_metric_is_none(self, registry):
        assert reduce_metric(registry.snapshot(), "nope", "max") is None

    def test_histogram_reduces_to_mean(self, registry):
        hist = registry.histogram("h", buckets=(1.0, 10.0))
        hist.observe(2.0)
        hist.observe(4.0)
        assert reduce_metric(registry.snapshot(), "h", "max") == pytest.approx(3.0)

    def test_empty_histogram_is_none(self, registry):
        registry.histogram("h")
        assert reduce_metric(registry.snapshot(), "h", "mean") is None

    def test_delta_since_previous(self, registry):
        counter = registry.counter("c_total")
        counter.inc(5)
        previous = registry.snapshot()
        counter.inc(3)
        value = reduce_metric(
            registry.snapshot(), "c_total", "sum",
            previous=previous, delta=True,
        )
        assert value == 3.0

    def test_delta_without_previous_counts_from_zero(self, registry):
        counter = registry.counter("c_total")
        counter.inc(5)
        value = reduce_metric(registry.snapshot(), "c_total", "sum", delta=True)
        assert value == 5.0

    def test_bad_reducer_rejected(self, registry):
        with pytest.raises(ConfigurationError):
            reduce_metric(registry.snapshot(), "x", "median")


class TestAlertRule:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AlertRule("", "m", lambda v: True)
        with pytest.raises(ConfigurationError):
            AlertRule("r", "m", "not-callable")
        with pytest.raises(ConfigurationError):
            AlertRule("r", "m", lambda v: True, for_n_samples=0)
        with pytest.raises(ConfigurationError):
            AlertRule("r", "m", lambda v: True, severity="critical")
        with pytest.raises(ConfigurationError):
            AlertRule("r", "m", lambda v: True, reduce="p99")

    def test_violated_ignores_missing_values(self):
        rule = ceiling_rule("r", "m", 1.0)
        assert not rule.violated(None)
        assert rule.violated(2.0)
        assert not rule.violated(0.5)

    def test_floor_rule(self):
        rule = floor_rule("r", "m", 1.5)
        assert rule.violated(1.0)
        assert not rule.violated(2.0)

    def test_message_names_metric_and_rule(self):
        rule = ceiling_rule("raw-ber-ceiling", "repro_raw_ber", 0.2)
        message = rule.message_for(0.31)
        assert "repro_raw_ber" in message
        assert "raw-ber-ceiling" in message
        assert "0.31" in message

    def test_alert_carries_rule_fields_and_message(self):
        rule = ceiling_rule("retry-slo", "m", 25, reduce="sum", delta=True)
        alert = rule.alert(30.0, sample=4)
        assert (alert.rule, alert.severity, alert.metric) == (
            "retry-slo", "page", "m",
        )
        assert (alert.value, alert.sample) == (30.0, 4)
        assert alert.message == rule.message_for(30.0)


class TestDefaultSloRules:
    def test_shape(self):
        rules = default_slo_rules()
        names = [rule.name for rule in rules]
        assert names == [
            "raw-ber-ceiling",
            "vote-margin-floor",
            "retry-budget",
            "quarantine-budget",
        ]
        by_name = {rule.name: rule for rule in rules}
        assert by_name["raw-ber-ceiling"].severity == "page"
        assert by_name["vote-margin-floor"].reduce == "mean"
        assert by_name["retry-budget"].delta is True
        assert by_name["quarantine-budget"].violated(1.0)

    def test_thresholds_parameterized(self):
        rules = {r.name: r for r in default_slo_rules(raw_ber_ceiling=0.05)}
        assert rules["raw-ber-ceiling"].violated(0.06)
        assert not rules["raw-ber-ceiling"].violated(0.04)


def test_alert_record_shape(registry):
    from repro.monitor import Alert

    alert = Alert(
        rule="raw-ber-ceiling",
        severity="page",
        metric="repro_raw_ber",
        value=0.4,
        sample=3,
        message="too hot",
    )
    record = alert.to_record()
    assert record["type"] == "alert"
    assert record["name"] == "raw-ber-ceiling"
    assert record["severity"] == "page"
    assert record["value"] == 0.4
    assert "ts" in record
