"""Tests for repro.dht.messages."""

import dataclasses
import json

import pytest

from repro.dht import (EvaluationInfo, IndexRecord, MessageEnvelope,
                       MessageKind, MessageTally)


class TestEvaluationInfo:
    def test_paper_message_fields(self):
        """EvaluationInfo = <FileID, OwnerID, Evaluation, Signature>."""
        info = EvaluationInfo("f1", "alice", 0.8, b"sig")
        assert info.file_id == "f1"
        assert info.owner_id == "alice"
        assert info.evaluation == 0.8
        assert info.signature == b"sig"

    def test_out_of_range_evaluation_rejected(self):
        with pytest.raises(ValueError):
            EvaluationInfo("f", "a", 1.5)

    def test_payload_is_deterministic(self):
        a = EvaluationInfo("f", "alice", 0.5)
        b = EvaluationInfo("f", "alice", 0.5)
        assert a.payload() == b.payload()

    def test_payload_excludes_signature(self):
        unsigned = EvaluationInfo("f", "alice", 0.5)
        signed = unsigned.with_signature(b"sig")
        assert unsigned.payload() == signed.payload()

    def test_payload_differs_by_content(self):
        assert (EvaluationInfo("f", "alice", 0.5).payload()
                != EvaluationInfo("f", "alice", 0.6).payload())

    def test_size_includes_signature(self):
        unsigned = EvaluationInfo("f", "alice", 0.5)
        signed = unsigned.with_signature(b"x" * 32)
        assert signed.size_bytes() == unsigned.size_bytes() + 32


def _fresh_payload(info):
    return json.dumps({"file_id": info.file_id, "owner_id": info.owner_id,
                       "evaluation": round(info.evaluation, 9)},
                      sort_keys=True).encode("utf-8")


class TestPayloadCache:
    def test_cached_bytes_equal_a_fresh_serialisation(self):
        info = EvaluationInfo("file-7", "alice", 1 / 3, b"sig")
        first = info.payload()
        assert first == _fresh_payload(info)
        assert info.payload() is first

    def test_signed_copy_has_correct_payload(self):
        unsigned = EvaluationInfo("f", "alice", 0.25)
        unsigned.payload()
        signed = unsigned.with_signature(b"s" * 32)
        assert signed.payload() == _fresh_payload(signed)
        assert signed.size_bytes() == len(_fresh_payload(signed)) + 32

    def test_replaced_evaluation_is_reserialised(self):
        info = EvaluationInfo("f", "alice", 0.25, b"sig")
        info.payload()
        changed = dataclasses.replace(info, evaluation=0.75)
        assert changed.payload() == _fresh_payload(changed)
        assert changed.payload() != info.payload()

    def test_cache_takes_no_part_in_eq_hash_or_repr(self):
        cached = EvaluationInfo("f", "alice", 0.5, b"sig")
        before = repr(cached)
        cached.payload()
        bare = EvaluationInfo("f", "alice", 0.5, b"sig")
        assert cached == bare
        assert hash(cached) == hash(bare)
        assert repr(cached) == repr(bare) == before
        assert "payload" not in before
        assert [f.name for f in dataclasses.fields(cached)] == [
            "file_id", "owner_id", "evaluation", "signature"]


class TestIndexRecord:
    def test_wire_size_grows_with_evaluation(self):
        """The paper's cost claim: piggybacking increases size 'slightly'."""
        bare = IndexRecord("f", "alice", "name.dat", 100.0)
        info = EvaluationInfo("f", "alice", 0.5, b"s" * 32)
        with_eval = IndexRecord("f", "alice", "name.dat", 100.0,
                                evaluation=info)
        assert with_eval.wire_size() > bare.wire_size()
        assert with_eval.wire_size() < 3 * bare.wire_size() + 200


class TestMessageTally:
    def test_counts_and_bytes(self):
        tally = MessageTally()
        tally.record(MessageKind.PUBLISH, 100)
        tally.record(MessageKind.PUBLISH, 50)
        tally.record(MessageKind.LOOKUP, 0)
        assert tally.count(MessageKind.PUBLISH) == 2
        assert tally.total_messages() == 3
        assert tally.total_bytes() == 150

    def test_unused_kind_is_zero(self):
        assert MessageTally().count(MessageKind.RETRIEVE) == 0

    def test_snapshot(self):
        tally = MessageTally()
        tally.record(MessageKind.LOOKUP)
        snapshot = tally.snapshot()
        assert snapshot == {"lookup": 1}


class TestMessageEnvelope:
    def test_bare_envelope_adds_no_overhead(self):
        envelope = MessageEnvelope(kind=MessageKind.PUBLISH,
                                   payload_bytes=100)
        assert envelope.wire_size() == 100

    def test_causal_ids_cost_eight_bytes_each(self):
        base = MessageEnvelope(kind=MessageKind.PUBLISH, payload_bytes=100)
        with_span = MessageEnvelope(kind=MessageKind.PUBLISH,
                                    payload_bytes=100, span_id=7)
        with_both = MessageEnvelope(kind=MessageKind.PUBLISH,
                                    payload_bytes=100, span_id=7,
                                    trace_id=9)
        assert with_span.wire_size() == base.wire_size() + 8
        assert with_both.wire_size() == base.wire_size() + 16

    def test_tally_accounts_envelope_overhead(self):
        tally = MessageTally()
        tally.record_envelope(MessageEnvelope(
            kind=MessageKind.PUBLISH, payload_bytes=100, span_id=1,
            trace_id=2))
        tally.record_envelope(MessageEnvelope(
            kind=MessageKind.PUBLISH, payload_bytes=100))
        assert tally.count(MessageKind.PUBLISH) == 2
        assert tally.total_bytes() == 216
