"""Tests for the chunked binary columnar trace format."""

import json
import struct
import zlib

import pytest

from repro.cli import main
from repro.obs.events import EventTrace
from repro.obs.traceio import (DEFAULT_CHUNK_EVENTS, HEADER_SIZE,
                               TRACE_MAGIC, JsonlTraceWriter,
                               TraceFormatError, TraceReader, TraceWriter,
                               canonical_line, decode_chunk, encode_chunk,
                               is_binary_trace, iter_trace_events,
                               open_trace_sink, trace_header, trace_info)


def _event(seq, kind, t, **fields):
    return {"seq": seq, "t": t, "event": kind, **fields}


def _sample_events():
    return [
        _event(0, "download", 1.5, cls="honest", wait=10.0, fake=False),
        _event(1, "request", 2.0, cls="polluter", file="f-1"),
        _event(2, "download", 3.25, cls="honest", wait=20.5, fake=True),
        _event(3, "dht_lookup", 4.0, hops=3, retries=0, ok=True),
        _event(4, "maintenance", 5.0, detail=None),
    ]


def _write(path, events, chunk_events=DEFAULT_CHUNK_EVENTS):
    with TraceWriter(path, chunk_events=chunk_events) as writer:
        writer.extend(events)
    return writer


class TestRoundTrip:
    def test_events_round_trip_exactly(self, tmp_path):
        events = _sample_events()
        path = tmp_path / "trace.bin"
        _write(path, events)
        with TraceReader(path) as reader:
            assert list(reader) == events

    def test_types_survive(self, tmp_path):
        events = [_event(0, "mix", 1.0,
                         an_int=7, a_float=7.0, a_bool=True,
                         a_str="x", none_field=None,
                         big_int=1 << 70, unicode_field="héllo ☃",
                         nested={"a": [1, 2]})]
        path = tmp_path / "trace.bin"
        _write(path, events)
        (decoded,) = list(iter_trace_events(path))
        assert decoded == events[0]
        # Exact types, not JSON-ish lookalikes.
        assert type(decoded["an_int"]) is int
        assert type(decoded["a_float"]) is float
        assert type(decoded["a_bool"]) is bool
        assert decoded["big_int"] == 1 << 70

    def test_mixed_type_column_falls_back_to_json(self, tmp_path):
        events = [_event(0, "a", 1.0, x=1),
                  _event(1, "a", 2.0, x="one"),
                  _event(2, "a", 3.0, x=2.5)]
        path = tmp_path / "trace.bin"
        _write(path, events)
        assert list(iter_trace_events(path)) == events

    def test_sparse_columns_round_trip(self, tmp_path):
        events = [_event(0, "a", 1.0, only_here="yes"),
                  _event(1, "b", 2.0),
                  _event(2, "a", 3.0, other=4)]
        path = tmp_path / "trace.bin"
        _write(path, events)
        assert list(iter_trace_events(path)) == events

    def test_canonical_reexport_is_byte_identical(self, tmp_path):
        records = []
        trace = EventTrace(sink=records)
        trace.record("download", 1.0, cls="honest", wait=3.5, fake=False)
        trace.record("request", 2.0, file="f-1")
        jsonl = tmp_path / "direct.jsonl"
        with JsonlTraceWriter(jsonl) as writer:
            for record in records:
                writer.append(record)
        binary = tmp_path / "trace.bin"
        _write(binary, records)
        recovered = "".join(canonical_line(event) + "\n"
                            for event in iter_trace_events(binary))
        assert recovered == jsonl.read_text()


class TestChunking:
    def test_small_chunks_cut_multiple_frames(self, tmp_path):
        events = [_event(i, "tick", float(i)) for i in range(10)]
        path = tmp_path / "trace.bin"
        writer = _write(path, events, chunk_events=3)
        assert writer.events_written == 10
        assert writer.chunks_written == 4  # 3+3+3+1
        assert list(iter_trace_events(path)) == events

    def test_flush_on_close_only(self, tmp_path):
        path = tmp_path / "trace.bin"
        writer = TraceWriter(path, chunk_events=100)
        writer.append(_event(0, "a", 1.0))
        assert writer.chunks_written == 0
        writer.close()
        assert writer.chunks_written == 1
        assert writer.events_written == 1

    def test_append_after_close_raises(self, tmp_path):
        writer = TraceWriter(tmp_path / "trace.bin")
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.append(_event(0, "a", 1.0))

    def test_close_is_idempotent(self, tmp_path):
        writer = TraceWriter(tmp_path / "trace.bin")
        writer.close()
        writer.close()

    def test_rejects_bad_chunk_events(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_events"):
            TraceWriter(tmp_path / "trace.bin", chunk_events=0)

    def test_empty_trace_is_just_the_header(self, tmp_path):
        path = tmp_path / "trace.bin"
        _write(path, [])
        assert path.read_bytes() == trace_header()
        assert list(iter_trace_events(path)) == []


class TestEncodeChunk:
    def test_deterministic_bytes(self):
        events = _sample_events()
        assert encode_chunk(events) == encode_chunk(list(events))

    def test_empty_chunk_rejected(self):
        with pytest.raises(ValueError, match="empty chunk"):
            encode_chunk([])


class TestChunkBatch:
    def _batch(self):
        frame = encode_chunk(_sample_events())
        return decode_chunk(frame[8:])  # skip the 8-byte frame prefix

    def test_kind_counts(self):
        assert self._batch().kind_counts() == {
            "dht_lookup": 1, "download": 2, "maintenance": 1, "request": 1}

    def test_kinds_in_event_order(self):
        assert self._batch().kinds == [
            "download", "request", "download", "dht_lookup", "maintenance"]

    def test_column_values(self):
        batch = self._batch()
        assert list(batch.column_values("wait")) == [10.0, 20.5]
        assert list(batch.column_values("hops")) == [3]
        assert batch.column_values("no_such_column") == ()

    def test_column_indexes_align_with_values(self):
        batch = self._batch()
        wait = batch.columns["wait"]
        assert list(wait.indexes) == [0, 2]
        dense = batch.columns["t"]
        assert list(dense.indexes) == [0, 1, 2, 3, 4]

    def test_values_decode_lazily(self):
        batch = self._batch()
        column = batch.columns["cls"]
        assert column._values is None
        assert list(column.values) == ["honest", "polluter", "honest"]
        assert column._values is not None

    def test_events_view_matches_input(self):
        assert self._batch().events() == _sample_events()


class TestCorruption:
    def _valid(self, tmp_path):
        path = tmp_path / "trace.bin"
        _write(path, _sample_events(), chunk_events=2)
        return path

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "foreign.bin"
        path.write_bytes(b"NOTATRCE" + b"\x00" * 16)
        with pytest.raises(TraceFormatError, match="bad magic"):
            TraceReader(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(TRACE_MAGIC[:4])
        with pytest.raises(TraceFormatError, match="short header"):
            TraceReader(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "future.bin"
        header = bytearray(trace_header())
        header[8] = 99  # version little-endian low byte
        path.write_bytes(bytes(header))
        with pytest.raises(TraceFormatError, match="version"):
            TraceReader(path)

    def test_torn_frame_raises_after_valid_prefix(self, tmp_path):
        path = self._valid(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # tear the last frame's body
        events = []
        with TraceReader(path) as reader, \
                pytest.raises(TraceFormatError, match="torn frame"):
            for event in reader:
                events.append(event)
        # Everything before the torn frame was already yielded.
        assert events == _sample_events()[:4]

    def test_crc_mismatch_detected(self, tmp_path):
        path = self._valid(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a bit in the final chunk body
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="CRC mismatch"):
            list(TraceReader(path))

    def test_implausible_frame_length_rejected(self, tmp_path):
        path = tmp_path / "huge.bin"
        path.write_bytes(trace_header()
                         + struct.pack("<II", 1 << 30, 0) + b"x")
        with pytest.raises(TraceFormatError, match="implausible"):
            list(TraceReader(path))


    def _crafted(self, tmp_path, body):
        """A trace whose one chunk carries ``body`` behind a valid CRC."""
        path = tmp_path / "crafted.bin"
        path.write_bytes(trace_header()
                         + struct.pack("<II", len(body), zlib.crc32(body))
                         + bytes(body))
        return path

    def test_kind_code_outside_dictionary_rejected(self, tmp_path, capsys):
        events = _sample_events()
        body = bytearray(encode_chunk(events)[8:])
        n_kinds = len({event["event"] for event in events})
        # The kind codes follow the n_events/n_kinds counts and the
        # length-prefixed kind names.
        offset = 6 + sum(2 + len(kind) for kind in
                         {event["event"] for event in events})
        struct.pack_into("<H", body, offset, n_kinds)
        path = self._crafted(tmp_path, body)
        with pytest.raises(TraceFormatError, match="kind code"):
            list(iter_trace_events(path))
        info = trace_info(path)
        assert info["truncated"] is True
        assert "kind code" in info["error"]
        assert main(["trace", "inspect", str(path)]) == 0
        assert "TRUNCATED after 0 events" in capsys.readouterr().out

    def test_deeply_nested_json_column_rejected(self, tmp_path, capsys):
        # ``x`` holds lists, so it takes the JSON fallback column; as the
        # last column its blob runs to the end of the chunk body.
        body = bytearray(encode_chunk([_event(0, "a", 1.0, x=[0])])[8:])
        column = decode_chunk(bytes(body)).columns["x"]
        blob = "[" * 200_000
        body[column._value_offset:] = (struct.pack("<I", len(blob))
                                       + blob.encode())
        path = self._crafted(tmp_path, body)
        with pytest.raises(TraceFormatError, match="undecodable column"):
            with TraceReader(path) as reader:
                for batch in reader.batches():
                    batch.events()
        assert main(["report", str(path)]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_presence_bit_past_chunk_rejected(self, tmp_path, capsys):
        events = _sample_events()  # 5 events: bits 5-7 of the bitmap spare
        body = bytearray(encode_chunk(events)[8:])
        # ``ok`` is a one-value bool column: one more presence bit keeps
        # its value extent at one byte, so only the bitmap is wrong.
        body[decode_chunk(bytes(body)).columns["ok"]._bitmap_offset] |= 0x80
        path = self._crafted(tmp_path, body)
        with pytest.raises(TraceFormatError, match="past the chunk"):
            list(iter_trace_events(path))
        assert trace_info(path)["truncated"] is True
        assert main(["report", str(path)]) == 1
        assert "cannot read trace" in capsys.readouterr().err


class TestSinkDispatchAndSniffing:
    def test_open_trace_sink_picks_format_by_extension(self, tmp_path):
        assert isinstance(open_trace_sink(tmp_path / "a.bin"), TraceWriter)
        assert isinstance(open_trace_sink(tmp_path / "a.trc"), TraceWriter)
        assert isinstance(open_trace_sink(tmp_path / "a.jsonl"),
                          JsonlTraceWriter)

    def test_jsonl_writer_streams_canonical_lines(self, tmp_path):
        path = tmp_path / "a.jsonl"
        with JsonlTraceWriter(path) as writer:
            writer.append(_event(0, "a", 1.0, z=1, b=2))
        assert path.read_text() == \
            '{"b":2,"event":"a","seq":0,"t":1.0,"z":1}\n'
        assert writer.events_written == 1

    def test_is_binary_trace_sniffs_bytes_not_extension(self, tmp_path):
        binary_named_jsonl = tmp_path / "actually_binary.jsonl"
        _write(binary_named_jsonl, [_event(0, "a", 1.0)])
        assert is_binary_trace(binary_named_jsonl) is True
        jsonl_named_bin = tmp_path / "actually_jsonl.bin"
        jsonl_named_bin.write_text('{"event":"a","seq":0,"t":1.0}\n')
        assert is_binary_trace(jsonl_named_bin) is False
        assert is_binary_trace(tmp_path / "absent") is False

    def test_iter_trace_events_reads_both_formats(self, tmp_path):
        events = _sample_events()
        binary = tmp_path / "a.bin"
        _write(binary, events)
        jsonl = tmp_path / "a.jsonl"
        jsonl.write_text("".join(canonical_line(event) + "\n"
                                 for event in events))
        assert list(iter_trace_events(binary)) == events
        assert list(iter_trace_events(jsonl)) == events


class TestTraceInfo:
    def test_binary_layout(self, tmp_path):
        path = tmp_path / "a.bin"
        _write(path, _sample_events(), chunk_events=2)
        info = trace_info(path)
        assert info["format"] == "binary"
        assert info["version"] == 1
        assert info["events"] == 5
        assert info["chunks"] == 3
        assert info["kinds"]["download"] == 2
        assert info["start_time"] == 1.5
        assert info["end_time"] == 5.0
        assert info["truncated"] is False
        assert info["error"] is None

    def test_jsonl_layout(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text("".join(canonical_line(event) + "\n"
                                for event in _sample_events()))
        info = trace_info(path)
        assert info["format"] == "jsonl"
        assert "version" not in info
        assert info["events"] == 5
        assert info["kinds"]["request"] == 1

    def test_truncated_binary_keeps_valid_prefix(self, tmp_path):
        path = tmp_path / "a.bin"
        _write(path, _sample_events(), chunk_events=2)
        path.write_bytes(path.read_bytes()[:-5])
        info = trace_info(path)
        assert info["truncated"] is True
        assert "torn frame" in info["error"]
        assert info["events"] == 4  # the two intact chunks
        assert info["chunks"] == 2

    def test_empty_file_counts_nothing(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        info = trace_info(path)
        assert info["events"] == 0
        assert info["start_time"] == 0.0

    def test_header_size_constant(self):
        assert len(trace_header()) == HEADER_SIZE == 12


class TestBenchHelpers:
    def test_small_snapshot_end_to_end(self, monkeypatch):
        from repro.obs import bench
        events = list(bench.synthetic_events(500, seed=3))
        assert len(events) == 500
        assert events == list(bench.synthetic_events(500, seed=3))
        monkeypatch.setattr(bench, "TRACE_EVENTS", 500)
        monkeypatch.setattr(bench, "TRACE_CHUNK_EVENTS", 128)
        monkeypatch.setattr(bench, "ROUNDTRIP_SAMPLE", 1000)
        snapshot = bench.collect_trace(seed=3)
        assert snapshot["events"] == 500
        assert snapshot["checks"] == {"scan_aggregates_match": True,
                                      "roundtrip_identical": True}
        assert snapshot["binary"]["file_bytes"] > 0
        assert snapshot["binary"]["chunks"] == 4
        assert snapshot["size_ratio"] > 0

    def test_synthetic_events_exercise_every_column_type(self):
        from repro.obs.bench import synthetic_events
        events = list(synthetic_events(2000, seed=3))
        kinds = {event["event"] for event in events}
        assert {"download", "request", "dht_lookup",
                "reputation_snapshot", "multitrust_iteration",
                "maintenance"} <= kinds
        assert any(event.get("detail") is None for event in events
                   if event["event"] == "maintenance")
