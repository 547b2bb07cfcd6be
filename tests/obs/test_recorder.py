"""Tests for the recorder facade and the null default."""

import json

from repro.obs.recorder import NULL_RECORDER, NullRecorder, Recorder
from repro.obs.traceio import JsonlTraceWriter


class TestNullRecorder:
    def test_disabled(self):
        assert NULL_RECORDER.enabled is False
        assert isinstance(NULL_RECORDER, NullRecorder)

    def test_all_calls_are_noops(self):
        recorder = NullRecorder()
        recorder.bind_clock(lambda: 1.0)
        recorder.event("x", t=1.0, field=2)
        recorder.inc("c")
        recorder.gauge("g", 1.0)
        recorder.observe("h", 1.0)
        with recorder.span("phase") as span:
            span.count("items")

    def test_profile_reuses_one_timer(self):
        recorder = NullRecorder()
        assert recorder.span("a") is recorder.span("b")
        assert recorder.resume_scope((1, 2, True)) \
            is recorder.resume_scope((3, 4, False))


class TestRecorder:
    def test_enabled(self):
        assert Recorder().enabled is True

    def test_event_uses_bound_clock(self):
        events = []
        recorder = Recorder(trace_sink=events)
        now = [0.0]
        recorder.bind_clock(lambda: now[0])
        now[0] = 42.0
        recorder.event("tick")
        recorder.event("tock", t=7.0)
        assert events[0]["t"] == 42.0
        assert events[1]["t"] == 7.0

    def test_metric_calls_reach_registry(self):
        recorder = Recorder()
        recorder.inc("c", 2, cls="honest")
        recorder.gauge("g", 0.5)
        recorder.observe("h", 3.0)
        snapshot = recorder.registry.snapshot()
        assert snapshot["counters"]["c{cls=honest}"] == 2
        assert snapshot["gauges"]["g"] == 0.5
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_profile_times_phase(self):
        recorder = Recorder()
        with recorder.span("phase") as span:
            span.count("items", 2)
        stats = recorder.profiler.phase("phase")
        assert stats.calls == 1
        assert stats.counters == {"items": 2}

    def test_subscribe_unsubscribe_lifecycle(self):
        recorder = Recorder()
        seen = []
        callback = seen.append
        recorder.subscribe(callback)
        recorder.event("a", t=0.0)
        recorder.unsubscribe(callback)
        recorder.event("b", t=1.0)
        assert [record["event"] for record in seen] == ["a"]
        # Detaching an unknown/already-removed callback is a no-op.
        recorder.unsubscribe(callback)
        recorder.unsubscribe(lambda record: None)
        # Re-subscribing resumes delivery.
        recorder.subscribe(callback)
        recorder.event("c", t=2.0)
        assert [record["event"] for record in seen] == ["a", "c"]

    def test_null_recorder_unsubscribe_is_noop(self):
        NULL_RECORDER.unsubscribe(lambda record: None)

    def test_trace_sink_spills_instead_of_buffering(self):
        sink_records = []

        class Sink:
            def append(self, record):
                sink_records.append(record)

        recorder = Recorder(trace_sink=Sink())
        recorder.event("a", t=0.0)
        recorder.event("b", t=1.0, x=2)
        assert len(recorder.trace) == 2
        assert [record["event"] for record in sink_records] == ["a", "b"]

    def test_write_artifacts(self, tmp_path):
        trace_path = tmp_path / "events.jsonl"
        metrics_path = tmp_path / "metrics.json"
        with JsonlTraceWriter(trace_path) as sink:
            recorder = Recorder(trace_sink=sink)
            recorder.event("a", t=1.0)
            recorder.inc("c")
        assert sink.events_written == 1
        recorder.write_metrics(str(metrics_path))
        assert '"event":"a"' in trace_path.read_text()
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["c"] == 1
