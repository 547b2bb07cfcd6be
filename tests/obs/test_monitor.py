"""Tests for the streaming monitor: live/offline agreement and the
scenario-level detector firing the tentpole promises."""

import pytest

from repro.baselines import MultiDimensionalMechanism
from repro.core import ReputationConfig
from repro.obs import Monitor, MonitorResult, Recorder, monitor_events
from repro.obs.alerts import Alert
from repro.obs.recorder import NULL_RECORDER
from repro.simulator import (FileSharingSimulation, ScenarioSpec,
                             SimulationConfig)

_DAY = 86400.0


def _event(kind, t, **fields):
    return {"seq": 0, "t": t, "event": kind, **fields}


def _run_monitored(seed=5):
    """One small collusion+whitewash simulation with a live monitor."""
    config = SimulationConfig(
        scenario=ScenarioSpec(honest=20, colluders=5, clique_size=5,
                              whitewashers=1, free_riders=4),
        duration_seconds=1.5 * _DAY, num_files=80, fake_ratio=0.25,
        request_rate=0.03, seed=seed)
    mechanism = MultiDimensionalMechanism(ReputationConfig(
        retention_saturation_seconds=config.duration_seconds / 3))
    recorder = Recorder(trace_sink=[])
    monitor = Monitor().attach(recorder)
    FileSharingSimulation(config, mechanism, recorder=recorder).run()
    monitor.finish()
    return recorder, monitor


@pytest.fixture(scope="module")
def monitored_run():
    return _run_monitored()


class TestLiveMonitoring:
    def test_alerts_interleave_into_the_trace(self, monitored_run):
        recorder, monitor = monitored_run
        recorded = [e for e in recorder.trace_sink if e["event"] == "alert"]
        assert len(recorded) == len(monitor.alerts)
        assert [Alert.from_event(e) for e in recorded] == monitor.alerts

    def test_collusion_ring_detector_fires_on_colluders(self, monitored_run):
        _, monitor = monitored_run
        rings = [a for a in monitor.alerts
                 if a.detector == "collusion_ring"]
        assert rings, "collusion scenario must trigger the ring detector"
        assert all(a.severity == "critical" for a in rings)
        # Every flagged member really is a colluder: no honest peer is
        # ever named in a ring alert.
        assert all("honest" not in a.message for a in rings)
        assert any("colluder" in a.message for a in rings)

    def test_whitewash_detector_fires_on_identity_shedding(
            self, monitored_run):
        _, monitor = monitored_run
        washes = [a for a in monitor.alerts if a.detector == "whitewash"]
        assert any("identity shed" in a.message for a in washes)

    def test_finish_is_idempotent(self, monitored_run):
        _, monitor = monitored_run
        assert monitor.finish() == []


class TestOfflineReplay:
    def test_replay_reproduces_live_alerts_exactly(self, monitored_run):
        recorder, monitor = monitored_run
        result = monitor_events(recorder.trace_sink)
        assert result.recorded_alerts == monitor.alerts
        assert result.alerts == monitor.alerts
        assert result.reproduces_recorded

    def test_two_runs_at_same_seed_agree(self, monitored_run):
        _, first = monitored_run
        _, second = _run_monitored()
        assert first.alerts == second.alerts

    def test_unmonitored_trace_is_vacuously_reproduced(self):
        result = monitor_events([_event("request", 1.0, cls="honest")])
        assert result.recorded_alerts == []
        assert result.reproduces_recorded
        assert result.events_seen == 1


class TestMonitorMechanics:
    def test_alert_events_are_not_fed_to_detectors(self):
        monitor = Monitor()
        raised = monitor.feed(_event("alert", 1.0, detector="x",
                                     severity="critical", message="m"))
        assert raised == []
        assert monitor.alerts == []

    def test_no_reemission_without_recorder(self):
        monitor = Monitor()
        for t in range(5):
            monitor.feed(_event("dht_lookup", float(t * 50), hops=3,
                                ok=False))
        assert monitor.alerts, "rule should fire"

    def test_attach_to_null_recorder_swallows_reemission(self):
        # NullRecorder.subscribe is a no-op; feeding still works directly.
        monitor = Monitor().attach(NULL_RECORDER)
        monitor.feed(_event("whitewash", 1.0, retired="a", fresh="b"))
        assert len(monitor.alerts) == 1

    def test_counts_by_severity_sorted_by_escalation(self):
        result = MonitorResult(alerts=[
            Alert(t=1.0, detector="d", severity="critical", message="m"),
            Alert(t=2.0, detector="d", severity="info", message="m"),
            Alert(t=3.0, detector="d", severity="info", message="m"),
        ])
        assert list(result.counts_by_severity().items()) == [
            ("info", 2), ("critical", 1)]

    def test_divergent_replay_detected(self):
        # A trace claiming an alert the detectors never raise.
        events = [
            _event("request", 1.0, cls="honest"),
            _event("alert", 2.0, detector="ghost", severity="critical",
                   message="not reproducible"),
        ]
        result = monitor_events(events)
        assert result.recorded_alerts and not result.alerts
        assert not result.reproduces_recorded
