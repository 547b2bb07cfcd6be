"""Tests for per-peer reputation timelines."""

import pytest

from repro.obs.detectors import FakeOutbreakDetector
from repro.obs.timeline import (FakeFractionAccumulator, PeerTimeline,
                                build_timelines, class_mean_series)


def _snapshot(t, peer, cls="honest", **fields):
    defaults = dict(score=1.0, norm=0.5, service_class=2, bytes_up=0.0,
                    bytes_down=0.0, fakes_served=0, online=True)
    defaults.update(fields)
    return {"seq": 0, "t": t, "event": "reputation_snapshot", "peer": peer,
            "cls": cls, **defaults}


class TestBuildTimelines:
    def test_groups_samples_by_peer_in_time_order(self):
        events = [
            _snapshot(100.0, "a", norm=0.2),
            _snapshot(100.0, "b", cls="polluter", norm=0.9),
            _snapshot(200.0, "a", norm=0.4),
        ]
        timelines = build_timelines(events)
        assert sorted(timelines) == ["a", "b"]
        assert [s.t for s in timelines["a"].samples] == [100.0, 200.0]
        assert timelines["a"].last.norm == pytest.approx(0.4)
        assert timelines["b"].cls == "polluter"

    def test_ignores_other_event_kinds(self):
        events = [{"seq": 0, "t": 1.0, "event": "download", "peer": "a"}]
        assert build_timelines(events) == {}

    def test_series_extracts_one_attribute(self):
        events = [_snapshot(100.0, "a", bytes_up=10.0),
                  _snapshot(200.0, "a", bytes_up=30.0)]
        timeline = build_timelines(events)["a"]
        assert timeline.series("bytes_up") == [(100.0, 10.0), (200.0, 30.0)]

    def test_empty_timeline_has_no_last(self):
        with pytest.raises(ValueError, match="empty"):
            PeerTimeline(peer="x").last


class TestClassMeanSeries:
    def test_means_per_class_per_tick(self):
        events = [
            _snapshot(100.0, "a", cls="honest", norm=0.2),
            _snapshot(100.0, "b", cls="honest", norm=0.4),
            _snapshot(100.0, "p", cls="polluter", norm=0.8),
        ]
        series = class_mean_series(build_timelines(events))
        assert series["honest"] == [(100.0, pytest.approx(0.3))]
        assert series["polluter"] == [(100.0, pytest.approx(0.8))]

    def test_alternate_attribute(self):
        events = [_snapshot(100.0, "a", service_class=3)]
        series = class_mean_series(build_timelines(events),
                                   attribute="service_class")
        assert series["honest"] == [(100.0, 3.0)]


class TestFakeFractionSeries:
    def _download(self, t, fake):
        return {"seq": 0, "t": t, "event": "download", "fake": fake}

    def test_windows_fold_download_stream(self):
        window = FakeOutbreakDetector.WINDOW_SECONDS
        events = [self._download(10.0, False), self._download(20.0, True),
                  self._download(window + 50.0, True),
                  self._download(window + 60.0, True)]
        accumulator = FakeFractionAccumulator()
        for event in events:
            accumulator.feed(event)
        assert accumulator.finish() == [
            (window, pytest.approx(0.5), 2),
            (2 * window, pytest.approx(1.0), 2),
        ]
