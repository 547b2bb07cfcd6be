"""Shared workload, frame and exact-equality helpers for the durability
tests."""

import json
import struct
import zlib

from repro.core import MultiDimensionalReputationSystem
from repro.core.persistence import snapshot_checksum, system_to_dict

USERS = ["alice", "bob", "carol", "dave"]
FILES = ["f1", "f2", "f3"]


def drive(system, steps, start=0):
    """Feed ``steps`` deterministic façade events, starting at event
    ``start`` of the fixed stream (so prefixes are well-defined)."""
    for i in range(start, start + steps):
        user = USERS[i % len(USERS)]
        peer = USERS[(i + 1) % len(USERS)]
        file_id = FILES[i % len(FILES)]
        t = 100.0 + 50.0 * i
        op = i % 6
        if op == 0:
            system.record_download(user, peer, file_id, 1e6 + i, timestamp=t)
        elif op == 1:
            system.record_vote(user, file_id, (i % 10) / 10.0, timestamp=t)
        elif op == 2:
            system.record_retention(user, file_id, 3600.0 * (1 + i % 4),
                                    timestamp=t)
        elif op == 3:
            system.record_play(user, file_id, 0.25 + (i % 3) * 0.25,
                               timestamp=t)
        elif op == 4:
            system.add_friend(user, peer)
        else:
            system.record_real_upload(user, 5e5 + i)


def matrix_dict(matrix):
    return {row: dict(matrix.row_view(row)) for row in matrix.row_ids()}


def assert_identical(recovered, live):
    """Exact-equality check: persisted document, checksum, and matrices."""
    recovered_doc = system_to_dict(recovered)
    live_doc = system_to_dict(live)
    assert recovered_doc == live_doc
    assert snapshot_checksum(recovered_doc) == snapshot_checksum(live_doc)
    recovered_view = recovered.refresh_view()
    live_view = live.refresh_view()
    assert matrix_dict(recovered_view.trust) == matrix_dict(live_view.trust)
    assert (matrix_dict(recovered_view.reputation)
            == matrix_dict(live_view.reputation))


def replay_reference(records):
    """A fresh system fed ``records`` through ``apply_record`` only."""
    system = MultiDimensionalReputationSystem()
    for record in records:
        system.apply_record(record.kind, record.payload)
    system.recompute()
    return system


def json_frame(seq, kind, payload):
    """A WAL frame whose body ``json.dumps`` writes: the reference the
    journal's frames must equal, and a way to forge records the journal
    refuses to write (unknown kinds, missing fields, wrong types)."""
    document = json.dumps({"data": payload, "kind": kind}, sort_keys=True,
                          separators=(",", ":"))
    body = struct.pack("<Q", seq) + document.encode("utf-8")
    return struct.pack("<II", len(body), zlib.crc32(body)) + body
