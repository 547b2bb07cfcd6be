"""Property tests: damaged WALs, binary traces and snapshot generations.

Every damage hypothesis draws — bit flips, truncations, insertions,
spliced runs of deeply nested JSON, appended garbage — must end in a
typed, documented outcome, never an ``IndexError``, ``KeyError``,
``TypeError`` or ``RecursionError`` escaping from a decoder:

* a damaged **WAL**, journalled from the shared event grammar, still
  scans as a prefix of the original records, and ``recover(repair=True)``
  equals a fresh replay of that prefix (``test_wal_crash.py`` holds the
  plain crash, appended-garbage and identical-bytes cases);
* a **WAL record body** damaged behind a recomputed CRC either replays or
  ends the log as an unreplayable record, and recovery equals a fresh
  replay of the records it accepted;
* a damaged **binary trace** still reads as a prefix of the original
  events, then stops or raises :class:`TraceFormatError`, and
  ``trace_info`` (``repro trace inspect``) never raises at all;
* a **chunk body** damaged behind a recomputed CRC — the only way past the
  frame check into the body decoder — decodes or raises
  :class:`TraceFormatError`;
* a damaged newest **snapshot generation**, in the fixture's indented
  layout or in the compact one :func:`save_system` writes now, either
  still verifies or is quarantined in favour of the older one, so
  recovery lands on the same state either way.

Inputs are bounded (a ~25 KB trace, at most four edits of at most 64
bytes or one 200 KB nested run each) and every test carries a deadline,
so no example can hang.  Each
example works in its own ``TemporaryDirectory`` (hypothesis does not reset
function-scoped fixtures between examples).
"""

import json
import shutil
import tempfile
import zlib
from contextlib import suppress
from pathlib import Path

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.durability import SnapshotStore, read_wal, recover, scan_wal
from repro.core.persistence import (save_system, system_from_dict,
                                    system_to_dict, wal_last_seq)
from repro.obs import Recorder
from repro.obs.traceio import (HEADER_SIZE, TRACE_MAGIC, TraceFormatError,
                               TraceWriter, decode_chunk, iter_trace_events,
                               trace_header, trace_info)
from repro.simulator import ChaosConfig, run_chaos_point

from tests.property.damage import (DAMAGE, FRAME, INTERLEAVINGS, WAL_DAMAGE,
                                   assert_recovers, check_wal_damage, damage,
                                   damage_edits, journal, keys)

FIXTURE = Path(__file__).parent.parent / "durability" / "fixtures" \
    / "v3_sharded_wal"
NEWEST = "snapshot-00000000000000000014.json"


def _seeded_trace() -> bytes:
    """Binary trace of a small seeded chaos cell, spans on, 7 chunks."""
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "trace.bin"
        with TraceWriter(path, chunk_events=48) as writer:
            run_chaos_point(
                ChaosConfig(peers=6, files=5, rounds=3, loss_rate=0.2,
                            churn_rate=0.5, seed=5),
                recorder=Recorder(trace_sink=writer, span_seed=5,
                                  span_sample=1))
        return path.read_bytes()


TRACE = _seeded_trace()


def _bodies(data: bytes):
    """The chunk bodies of an undamaged trace, in file order."""
    bodies, offset = [], HEADER_SIZE
    while offset < len(data):
        length, _crc = FRAME.unpack_from(data, offset)
        offset += FRAME.size
        bodies.append(data[offset:offset + length])
        offset += length
    return bodies


def _read(data: bytes, allowed=()):
    """Events decoded from ``data`` before the reader stopped; only
    ``allowed`` may stop it early."""
    events = []
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "trace.bin"
        path.write_bytes(data)
        trace_info(path)  # never raises, whatever the damage
        with suppress(*allowed):
            for event in iter_trace_events(path):
                events.append(event)
        with suppress(*allowed):
            list(iter_trace_events(path, since=0.0, until=150.0))
    return events


BODIES = _bodies(TRACE)
EVENTS = _read(TRACE)


@DAMAGE
@given(edits=damage_edits(len(TRACE)))
def test_damaged_trace_reads_a_prefix(edits):
    damaged = damage(TRACE, edits)
    # Still binary: only the typed format error may stop the read.  A
    # damaged magic sends the file down the JSONL path, whose errors are
    # plain ValueErrors.
    allowed = (TraceFormatError if damaged.startswith(TRACE_MAGIC)
               else ValueError)
    events = _read(damaged, (allowed,))
    assert events == EVENTS[:len(events)]


@DAMAGE
@given(chunk=st.integers(min_value=0, max_value=len(BODIES) - 1),
       edits=damage_edits(max(len(body) for body in BODIES)))
def test_damaged_chunk_body_decodes_or_raises_format_error(chunk, edits):
    body = damage(BODIES[chunk], edits)
    with suppress(TraceFormatError):
        batch = decode_chunk(body)
        batch.kind_counts()
        batch.events()
    # The same body behind a valid CRC: every reader stays typed.
    _read(trace_header() + FRAME.pack(len(body), zlib.crc32(body)) + body,
          (TraceFormatError,))


def _recovered_state(directory: Path) -> dict:
    return system_to_dict(recover(directory).system)


def _compact_generation(snapshot: bytes) -> bytes:
    """An indented generation as :func:`save_system` writes it now: the
    canonical dump with its checksum first."""
    document = json.loads(snapshot)
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / NEWEST
        save_system(system_from_dict(document), path,
                    last_seq=wal_last_seq(document))
        return path.read_bytes()


with tempfile.TemporaryDirectory() as _workdir:
    _copy = Path(_workdir) / "state"
    shutil.copytree(FIXTURE, _copy)
    RECOVERED = _recovered_state(_copy)
SNAPSHOT = (FIXTURE / NEWEST).read_bytes()
COMPACT_SNAPSHOT = _compact_generation(SNAPSHOT)


def _check_damaged_newest(snapshot: bytes, edits) -> None:
    with tempfile.TemporaryDirectory() as workdir:
        directory = Path(workdir) / "state"
        shutil.copytree(FIXTURE, directory)
        (directory / NEWEST).write_bytes(damage(snapshot, edits))
        loaded = SnapshotStore(directory).load_latest()
        if loaded.quarantined:
            assert [q.original.name for q in loaded.quarantined] == [NEWEST]
            assert loaded.last_seq == 0
        else:
            assert loaded.path.name == NEWEST
            assert loaded.last_seq == 14

        # Recovery from either generation replays to the same state.
        directory = Path(workdir) / "recover"
        shutil.copytree(FIXTURE, directory)
        (directory / NEWEST).write_bytes(damage(snapshot, edits))
        assert _recovered_state(directory) == RECOVERED


@DAMAGE
@given(edits=damage_edits(len(SNAPSHOT)))
def test_damaged_snapshot_falls_back_to_older_generation(edits):
    _check_damaged_newest(SNAPSHOT, edits)


@DAMAGE
@given(edits=damage_edits(len(COMPACT_SNAPSHOT)))
def test_damaged_compact_snapshot_falls_back_to_older_generation(edits):
    _check_damaged_newest(COMPACT_SNAPSHOT, edits)


@WAL_DAMAGE
@given(interleaving=INTERLEAVINGS, edits=damage_edits(4096))
def test_damaged_wal_recovers_a_prefix(interleaving, edits):
    check_wal_damage(interleaving, edits)


#: Single-bit flips below bit 7 keep a JSON body ASCII, so most damaged
#: records still decode and reach the stores.
ASCII_FLIPS = st.sampled_from([1 << bit for bit in range(7)])


@WAL_DAMAGE
@given(interleaving=INTERLEAVINGS, index=st.integers(min_value=0),
       edits=damage_edits(256, ASCII_FLIPS))
def test_damaged_wal_record_body_replays_or_ends_the_log(interleaving,
                                                         index, edits):
    with tempfile.TemporaryDirectory() as workdir:
        wal = journal(Path(workdir) / "state", interleaving)
        data = wal.read_bytes()
        originals = scan_wal(data).records
        assume(originals)
        index %= len(originals)
        start = originals[index].offset
        end = start + originals[index].frame_bytes
        body = damage(data[start + FRAME.size:end], edits)
        wal.write_bytes(data[:start] + FRAME.pack(len(body), zlib.crc32(body))
                        + body + data[end:])
        records = read_wal(wal).records
        assert keys(records[:index]) == keys(originals[:index])
        assert_recovers(wal, records)
