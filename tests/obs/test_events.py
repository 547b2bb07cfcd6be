"""Tests for the JSONL event trace and its loader."""

import pytest

from repro.cli import main
from repro.obs.events import EventTrace, read_events
from repro.obs.traceio import JsonlTraceWriter


class TestEventTrace:
    def test_record_stamps_seq_t_event(self):
        trace = EventTrace()
        record = trace.record("download", 12.5, cls="honest")
        assert record == {"seq": 0, "t": 12.5, "event": "download",
                          "cls": "honest"}
        assert trace.record("request", 13.0)["seq"] == 1

    def test_reserved_fields_rejected(self):
        trace = EventTrace()
        # ``t`` collides with the positional parameter itself (TypeError);
        # ``seq`` and ``event`` are caught by the explicit guard.
        for reserved in ("seq", "t", "event"):
            with pytest.raises((ValueError, TypeError)):
                trace.record("x", 0.0, **{reserved: 1})

    def test_of_kind_and_kinds(self):
        records = []
        trace = EventTrace(sink=records)
        trace.record("a", 0.0)
        trace.record("b", 1.0)
        trace.record("a", 2.0)
        assert len([r for r in records if r["event"] == "a"]) == 2
        assert trace.kinds() == {"a": 2, "b": 1}

    def test_lines_are_canonical_json(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlTraceWriter(path) as sink:
            EventTrace(sink=sink).record("download", 1.0, z_field=1,
                                         a_field=2)
        # Sorted keys, no whitespace: byte-stable across runs.
        assert path.read_text() == ('{"a_field":2,"event":"download",'
                                    '"seq":0,"t":1.0,"z_field":1}\n')


class TestSpilledTrace:
    class _ListSink:
        def __init__(self):
            self.records = []

        def append(self, record):
            self.records.append(record)

    def test_records_stream_to_sink_not_buffer(self):
        sink = self._ListSink()
        trace = EventTrace(sink=sink)
        trace.record("a", 0.0)
        trace.record("b", 1.0, x=1)
        assert len(trace) == 2
        assert [r["event"] for r in sink.records] == ["a", "b"]
        assert not hasattr(trace, "_events")

    def test_kind_counts_survive_spilling(self):
        trace = EventTrace(sink=self._ListSink())
        trace.record("a", 0.0)
        trace.record("a", 1.0)
        trace.record("b", 2.0)
        assert trace.kinds() == {"a": 2, "b": 1}


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlTraceWriter(path) as sink:
            trace = EventTrace(sink=sink)
            trace.record("download", 1.0, cls="honest", fake=False)
            trace.record("request", 2.0, file="f-1")
        assert sink.events_written == len(trace) == 2
        events = list(read_events(str(path)))
        assert [e["event"] for e in events] == ["download", "request"]
        assert events[0]["fake"] is False

    def test_read_is_a_lazy_generator(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "a", "seq": 0, "t": 0}\nnot json\n')
        events = read_events(str(path))
        # The good prefix streams out before the bad line is reached.
        assert next(events)["event"] == "a"
        with pytest.raises(ValueError, match="invalid JSON"):
            next(events)

    def test_read_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "ok", "seq": 0, "t": 0}\nnot json\n')
        with pytest.raises(ValueError, match="invalid JSON"):
            list(read_events(str(path)))

    def test_read_rejects_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.jsonl"
        path.write_text('{"event": "ok", "seq": 0, "t": 0}\n'
                        + "[" * 200_000 + "\n")
        with pytest.raises(ValueError, match="deep.jsonl:2: invalid JSON"):
            list(read_events(str(path)))
        assert main(["report", str(path)]) == 1
        assert "cannot read trace" in capsys.readouterr().err
        assert main(["trace", "inspect", str(path)]) == 0

    def test_read_rejects_non_event_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0, "t": 0}\n')
        with pytest.raises(ValueError, match="not an event record"):
            list(read_events(str(path)))

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "a", "seq": 0, "t": 0}\n\n')
        assert len(list(read_events(str(path)))) == 1
