"""Damage edits and the WAL damage check shared by the damage properties.

:func:`damage_edits` draws at most four bit flips, truncations,
insertions, spliced runs of deeply nested JSON and appended garbage;
:func:`damage` applies them to a byte string.
:func:`check_wal_damage` journals an interleaving of the shared event
grammar, damages the WAL and requires that what survives is a prefix of
the original records that ``recover(repair=True)`` replays exactly.
``test_decoder_damage.py`` and ``test_wal_crash.py`` draw from here.
"""

import struct
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.core import MultiDimensionalReputationSystem
from repro.core.durability import (WAL_FILENAME, DurabilityManager,
                                   read_wal, recover, scan_wal)

from tests.durability.helpers import assert_identical, replay_reference
from tests.property.grammar import SMALL, apply, events

#: ``(length, crc32)`` ahead of every WAL and trace-chunk body.
FRAME = struct.Struct("<II")

#: Every damage property carries a deadline, so no example can hang.
DAMAGE = settings(max_examples=150, deadline=2000,
                  suppress_health_check=[HealthCheck.too_slow])
WAL_DAMAGE = settings(DAMAGE, max_examples=80)

INTERLEAVINGS = st.lists(events(*SMALL), min_size=1, max_size=25)


#: Nested deeper than any JSON decoder's stack: spliced into a body that
#: a recomputed CRC lets through, it makes ``json.loads`` raise
#: ``RecursionError`` instead of a ``ValueError``.
NESTED_RUN = b"[" * 200_000


def damage_edits(max_position: int,
                 masks=st.integers(min_value=1, max_value=255)):
    position = st.integers(min_value=0, max_value=max_position)
    flip = st.tuples(st.just("flip"), position, masks)
    truncate = st.tuples(st.just("truncate"), position, st.just(b""))
    insert = st.tuples(st.just("insert"), position,
                       st.binary(min_size=1, max_size=16))
    nest = st.tuples(st.just("insert"), position, st.just(NESTED_RUN))
    append = st.tuples(st.just("append"), st.just(0),
                       st.binary(min_size=1, max_size=64))
    return st.lists(st.one_of(flip, truncate, insert, nest, append),
                    min_size=1, max_size=4)


def damage(data: bytes, edits) -> bytes:
    damaged = bytearray(data)
    for op, position, operand in edits:
        if op == "flip":
            if damaged:
                damaged[position % len(damaged)] ^= operand
        elif op == "truncate":
            del damaged[position % (len(damaged) + 1):]
        elif op == "append":
            damaged += operand
        else:
            damaged[position % (len(damaged) + 1):0] = operand
    return bytes(damaged)


def journal(directory: Path, interleaving) -> Path:
    """Journal ``interleaving`` into ``directory``; returns the WAL path."""
    system = MultiDimensionalReputationSystem()
    with DurabilityManager(system, directory, fsync="none"):
        for clock, event in enumerate(interleaving):
            apply(system, event, float(clock))
    return directory / WAL_FILENAME


def keys(records):
    return [(record.seq, record.kind, record.payload) for record in records]


def assert_recovers(wal: Path, records) -> int:
    """``recover(repair=True)`` replays a prefix of ``records``, equals a
    fresh replay of it and leaves exactly it in the WAL; returns its
    length."""
    result = recover(wal.parent, repair=True)
    replayed = records[:result.replayed_records]
    if len(replayed) < len(records):
        assert result.truncation_reason.startswith(
            f"unreplayable record at seq {records[len(replayed)].seq}: ")
    assert result.last_seq == (replayed[-1].seq if replayed else 0)
    repaired = read_wal(wal)
    assert not repaired.truncated
    assert keys(repaired.records) == keys(replayed)
    assert_identical(result.system, replay_reference(replayed))
    return len(replayed)


def check_wal_damage(interleaving, edits):
    """Journal ``interleaving``, damage the WAL, and require a prefix of its
    records that ``recover(repair=True)`` replays exactly."""
    with tempfile.TemporaryDirectory() as workdir:
        wal = journal(Path(workdir) / "state", interleaving)
        pristine = wal.read_bytes()
        wal.write_bytes(damage(pristine, edits))
        records = read_wal(wal).records
        assert keys(records) == keys(
            scan_wal(pristine).records[:len(records)])
        assert assert_recovers(wal, records) == len(records)
