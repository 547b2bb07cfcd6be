"""Tests for alerts and the declarative rule detectors."""

import pytest

from repro.obs import Monitor
from repro.obs.alerts import Alert, Severity
from repro.obs.detectors import (ThresholdRule, WindowedCountRule,
                                 default_detectors)


def _event(kind, t, **fields):
    return {"seq": 0, "t": t, "event": kind, **fields}


def _default_rule_alerts(events):
    """Alerts the default detector list raises, fed through observe()."""
    detectors = default_detectors()
    return [alert for event in events for detector in detectors
            for alert in detector.observe(event)]


class TestAlert:
    def test_round_trips_through_event_fields(self):
        alert = Alert(t=5.0, detector="x", severity="warning", message="m")
        event = {"event": "alert", "t": 5.0, **alert.to_fields()}
        assert Alert.from_event(event) == alert

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Alert(t=0.0, detector="x", severity="fatal", message="m")

    def test_severity_rank_orders_escalation(self):
        assert (Severity.rank("info") < Severity.rank("warning")
                < Severity.rank("critical"))


class TestThresholdRule:
    def test_fires_above_bound(self):
        rule = ThresholdRule(name="hops", event_kind="dht_lookup",
                             field_name="hops", op=">", bound=10.0)
        assert rule.observe(_event("dht_lookup", 1.0, hops=11)) != []
        assert rule.observe(_event("dht_lookup", 1.0, hops=10)) == []

    def test_ignores_other_kinds_and_missing_fields(self):
        rule = ThresholdRule(name="hops", event_kind="dht_lookup",
                             field_name="hops", op=">", bound=10.0)
        assert rule.observe(_event("download", 1.0, hops=99)) == []
        assert rule.observe(_event("dht_lookup", 1.0)) == []
        assert rule.observe(_event("dht_lookup", 1.0, hops="many")) == []

    def test_where_predicate_filters(self):
        rule = ThresholdRule(name="r", event_kind="dht_lookup",
                             field_name="hops", op=">=", bound=1.0,
                             where=lambda e: not e.get("ok", True))
        assert rule.observe(_event("dht_lookup", 1.0, hops=5,
                                   ok=True)) == []
        assert rule.observe(_event("dht_lookup", 1.0, hops=5,
                                   ok=False)) != []

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="op"):
            ThresholdRule(name="r", event_kind="x", field_name="f",
                          op="!=", bound=0.0)


class TestWindowedCountRule:
    def _rule(self, **kwargs):
        defaults = dict(name="burst", event_kind="dht_lookup",
                        window_seconds=100.0, min_count=3)
        defaults.update(kwargs)
        return WindowedCountRule(**defaults)

    def test_fires_when_burst_fills_window(self):
        rule = self._rule()
        assert rule.observe(_event("dht_lookup", 10.0)) == []
        assert rule.observe(_event("dht_lookup", 20.0)) == []
        alerts = rule.observe(_event("dht_lookup", 30.0))
        assert len(alerts) == 1
        assert alerts[0].t == 30.0

    def test_spread_out_events_never_fire(self):
        rule = self._rule()
        for t in (0.0, 200.0, 400.0, 600.0):
            assert rule.observe(_event("dht_lookup", t)) == []

    def test_sustained_burst_alerts_once_per_window(self):
        rule = self._rule()
        fired = [alert for t in range(0, 300, 10)
                 for alert in rule.observe(_event("dht_lookup", float(t)))]
        # 30 events over 300s with a 100s mute: roughly one per window.
        assert 2 <= len(fired) <= 3

    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            self._rule(window_seconds=0.0)
        with pytest.raises(ValueError, match="min_count"):
            self._rule(min_count=0)


class TestRulesEngine:
    """The rules run as detectors, in the monitor's one detector list."""

    def test_evaluates_rules_in_order(self):
        monitor = Monitor()
        monitor.detectors = [
            ThresholdRule(name="a", event_kind="x", field_name="v",
                          op=">", bound=0.0),
            ThresholdRule(name="b", event_kind="x", field_name="v",
                          op=">", bound=0.0),
        ]
        alerts = monitor.feed(_event("x", 1.0, v=1))
        assert [a.detector for a in alerts] == ["rule:a", "rule:b"]

    def test_default_rules_catch_failed_lookup_burst(self):
        alerts = _default_rule_alerts(
            _event("dht_lookup", float(t * 50), hops=3, ok=False)
            for t in range(5))
        assert any(a.detector == "rule:lookup_failure_burst"
                   for a in alerts)

    def test_default_rules_ignore_healthy_lookups(self):
        alerts = _default_rule_alerts(
            _event("dht_lookup", float(t * 50), hops=3, ok=True)
            for t in range(20))
        assert alerts == []
