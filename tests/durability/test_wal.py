"""Tests for the binary WAL format: framing, scanning, corruption."""

import json
import struct
import zlib

import pytest

from repro.core.durability import (WalWriter, encode_record, read_wal,
                                   scan_wal, truncate_wal)
from repro.core.durability.wal import (FRAME_OVERHEAD, HEADER_SIZE,
                                       MAX_RECORD_BYTES, wal_header)
from repro.core.journal_table import journal_fields

from tests.durability.helpers import json_frame


def _write(tmp_path, records, fsync="batch"):
    path = tmp_path / "journal.wal"
    with WalWriter(path, fsync=fsync) as writer:
        for kind, payload in records:
            writer.append(kind, journal_fields(kind, payload))
    return path


SAMPLE = [
    ("eval.vote", {"user": "alice", "file": "f1", "vote": 0.9,
                   "timestamp": 10.0}),
    ("ledger.download", {"downloader": "alice", "uploader": "bob",
                         "file": "f1", "size": 5e8, "timestamp": 11.0}),
    ("user.rate", {"rater": "alice", "ratee": "bob", "rating": 0.7}),
]


class TestRoundTrip:
    def test_records_round_trip(self, tmp_path):
        path = _write(tmp_path, SAMPLE)
        scan = read_wal(path)
        assert not scan.truncated
        assert scan.reason is None
        assert [r.kind for r in scan.records] == [k for k, _ in SAMPLE]
        assert [r.payload for r in scan.records] == [p for _, p in SAMPLE]

    def test_sequences_are_monotonic_from_one(self, tmp_path):
        scan = read_wal(_write(tmp_path, SAMPLE))
        assert [r.seq for r in scan.records] == [1, 2, 3]
        assert scan.last_seq == 3

    def test_append_resumes_after_reopen(self, tmp_path):
        path = _write(tmp_path, SAMPLE)
        with WalWriter(path, start_seq=read_wal(path).last_seq) as writer:
            writer.append("eval.vote", ("carol", "f2", 0.5, 12.0))
        scan = read_wal(path)
        assert [r.seq for r in scan.records] == [1, 2, 3, 4]
        assert not scan.truncated

    def test_empty_log_is_header_only(self, tmp_path):
        path = tmp_path / "journal.wal"
        WalWriter(path).close()
        scan = read_wal(path)
        assert scan.records == []
        assert scan.valid_bytes == HEADER_SIZE
        assert not scan.truncated

    def test_encoding_is_deterministic(self):
        payload = {"downloader": "x", "uploader": "a", "file": "b",
                   "size": 2.0, "timestamp": 1}
        values = journal_fields("ledger.download", payload)
        frame = encode_record(7, "ledger.download", values)
        assert frame == encode_record(7, "ledger.download", values)
        assert frame == json_frame(7, "ledger.download", payload)
        assert frame == json_frame(7, "ledger.download",
                                   dict(reversed(list(payload.items()))))

    def test_fast_encoder_matches_canonical_json(self):
        payload = {"user": "ué\"x", "file": "f\u2028", "vote": 0.125,
                   "timestamp": 3}
        frame = encode_record(1, "eval.vote", ("ué\"x", "f\u2028", 0.125, 3))
        body = frame[FRAME_OVERHEAD + 8:].decode("utf-8")
        assert body == json.dumps({"kind": "eval.vote", "data": payload},
                                  sort_keys=True, separators=(",", ":"))


class TestCorruption:
    """Every corruption mode must yield the longest valid prefix, never
    an exception."""

    def test_torn_tail_truncates_cleanly(self, tmp_path):
        path = _write(tmp_path, SAMPLE)
        clean = read_wal(path)
        data = path.read_bytes()
        torn = data[:clean.records[-1].offset + 5]
        path.write_bytes(torn)
        scan = read_wal(path)
        assert scan.truncated
        assert len(scan.records) == 2
        assert scan.valid_bytes == clean.records[-1].offset

    def test_bit_flip_stops_at_crc(self, tmp_path):
        path = _write(tmp_path, SAMPLE)
        data = bytearray(path.read_bytes())
        second = read_wal(path).records[1]
        data[second.offset + FRAME_OVERHEAD + 9] ^= 0x40
        path.write_bytes(bytes(data))
        scan = read_wal(path)
        assert scan.truncated
        assert scan.reason == "CRC mismatch"
        assert len(scan.records) == 1

    def test_garbage_length_prefix_rejected(self, tmp_path):
        path = _write(tmp_path, SAMPLE[:1])
        with open(path, "ab") as handle:
            handle.write(struct.pack("<II", MAX_RECORD_BYTES + 1, 0))
            handle.write(b"\x00" * 32)
        scan = read_wal(path)
        assert scan.truncated
        assert scan.reason == "implausible frame length"
        assert len(scan.records) == 1

    def test_sequence_gap_detected(self, tmp_path):
        path = tmp_path / "journal.wal"
        with open(path, "wb") as handle:
            handle.write(wal_header())
            handle.write(encode_record(1, "ledger.prune", (1.0,)))
            handle.write(encode_record(3, "ledger.prune", (2.0,)))
        scan = read_wal(path)
        assert scan.truncated
        assert "sequence gap" in scan.reason
        assert len(scan.records) == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "journal.wal"
        path.write_bytes(b"NOTAWAL!" + b"\x00" * 16)
        scan = read_wal(path)
        assert scan.truncated
        assert scan.reason == "bad magic"
        assert scan.records == []

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "journal.wal"
        path.write_bytes(b"REP")
        scan = read_wal(path)
        assert scan.truncated
        assert scan.reason == "short header"

    def test_undecodable_body_rejected(self, tmp_path):
        path = tmp_path / "journal.wal"
        import zlib
        body = struct.pack("<Q", 1) + b"\xff\xfe not json"
        with open(path, "wb") as handle:
            handle.write(wal_header())
            handle.write(struct.pack("<II", len(body), zlib.crc32(body)))
            handle.write(body)
        scan = read_wal(path)
        assert scan.truncated
        assert "body" in scan.reason

    def test_deeply_nested_body_is_undecodable(self, tmp_path):
        # Nesting past the JSON decoder's stack raises RecursionError; a
        # CRC-valid frame holding it ends the log like any bad body.
        path = _write(tmp_path, SAMPLE[:1])
        body = struct.pack("<Q", 2) + b"[" * 200_000
        with open(path, "ab") as handle:
            handle.write(struct.pack("<II", len(body), zlib.crc32(body)))
            handle.write(body)
        scan = read_wal(path)
        assert [record.seq for record in scan.records] == [1]
        assert scan.reason == "undecodable record body"

    def test_truncate_wal_repairs_in_place(self, tmp_path):
        path = _write(tmp_path, SAMPLE)
        data = path.read_bytes()
        path.write_bytes(data + b"\xde\xad\xbe\xef")
        scan = read_wal(path)
        assert scan.truncated
        removed = truncate_wal(path, scan)
        assert removed == 4
        healed = read_wal(path)
        assert not healed.truncated
        assert len(healed.records) == len(SAMPLE)

    def test_every_single_byte_flip_yields_prefix(self, tmp_path):
        """Exhaustive bit-rot: flipping ANY byte never crashes the scan
        and never corrupts the records before the flip point."""
        path = _write(tmp_path, SAMPLE)
        pristine = path.read_bytes()
        clean = scan_wal(pristine)
        for offset in range(len(pristine)):
            mangled = bytearray(pristine)
            mangled[offset] ^= 0xFF
            scan = scan_wal(bytes(mangled))
            # Valid records must be a strict prefix of the clean decode.
            decoded = [(r.seq, r.kind, r.payload) for r in scan.records]
            expected = [(r.seq, r.kind, r.payload)
                        for r in clean.records[:len(decoded)]]
            assert decoded == expected, f"divergence at byte {offset}"


class TestWriterValidation:
    def test_rejects_unknown_fsync_policy(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            WalWriter(tmp_path / "w.wal", fsync="sometimes")

    def test_rejects_append_after_close(self, tmp_path):
        writer = WalWriter(tmp_path / "w.wal")
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.append("user.friend", ("a", "b"))

    def test_rejects_negative_start_seq(self, tmp_path):
        with pytest.raises(ValueError, match="start_seq"):
            WalWriter(tmp_path / "w.wal", start_seq=-1)
