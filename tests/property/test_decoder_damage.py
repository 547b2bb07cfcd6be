"""Property tests: damaged binary traces and snapshot generations.

The WAL has its own crash-anywhere property (``test_wal_crash.py``); this
module holds the two other on-disk decoders to the same standard.  Every
damage hypothesis draws — bit flips, truncations, insertions — must end in
a typed, documented outcome, never an ``IndexError`` or ``AttributeError``
escaping from the decoder:

* a damaged **binary trace** still reads as a prefix of the original
  events, then stops or raises :class:`TraceFormatError`, and
  ``trace_info`` (``repro trace inspect``) never raises at all;
* a **chunk body** damaged behind a recomputed CRC — the only way past the
  frame check into the body decoder — decodes or raises
  :class:`TraceFormatError`;
* a damaged newest **snapshot generation** either still verifies or is
  quarantined in favour of the older one, so recovery lands on the same
  state either way.

Inputs are bounded (a ~25 KB trace, at most four edits of at most 16
bytes) and every test carries a deadline, so no example can hang.  Each
example works in its own ``TemporaryDirectory`` (hypothesis does not reset
function-scoped fixtures between examples).
"""

import shutil
import struct
from contextlib import suppress
import tempfile
import zlib
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.durability import SnapshotStore, recover
from repro.core.persistence import system_to_dict
from repro.obs import Recorder
from repro.obs.traceio import (HEADER_SIZE, TRACE_MAGIC, TraceFormatError,
                               TraceWriter, decode_chunk, iter_trace_events,
                               trace_header, trace_info)
from repro.simulator import ChaosConfig, run_chaos_point

FIXTURE = Path(__file__).parent.parent / "durability" / "fixtures" \
    / "v3_sharded_wal"
NEWEST = "snapshot-00000000000000000014.json"

_FRAME = struct.Struct("<II")


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
        length, _crc = _FRAME.unpack_from(data, offset)
        offset += _FRAME.size
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


def _edits(max_position: int):
    position = st.integers(min_value=0, max_value=max_position)
    flip = st.tuples(st.just("flip"), position,
                     st.integers(min_value=1, max_value=255))
    truncate = st.tuples(st.just("truncate"), position, st.just(b""))
    insert = st.tuples(st.just("insert"), position,
                       st.binary(min_size=1, max_size=16))
    return st.lists(st.one_of(flip, truncate, insert), min_size=1,
                    max_size=4)


def _damage(data: bytes, edits) -> bytes:
    damaged = bytearray(data)
    for op, position, operand in edits:
        if op == "flip":
            if damaged:
                damaged[position % len(damaged)] ^= operand
        elif op == "truncate":
            del damaged[position % (len(damaged) + 1):]
        else:
            damaged[position % (len(damaged) + 1):0] = operand
    return bytes(damaged)


DAMAGE = settings(max_examples=150, deadline=2000,
                  suppress_health_check=[HealthCheck.too_slow])


@DAMAGE
@given(edits=_edits(len(TRACE)))
def test_damaged_trace_reads_a_prefix(edits):
    damaged = _damage(TRACE, edits)
    # Still binary: only the typed format error may stop the read.  A
    # damaged magic sends the file down the JSONL path, whose errors are
    # plain ValueErrors.
    allowed = (TraceFormatError if damaged.startswith(TRACE_MAGIC)
               else ValueError)
    events = _read(damaged, (allowed,))
    assert events == EVENTS[:len(events)]


@DAMAGE
@given(chunk=st.integers(min_value=0, max_value=len(BODIES) - 1),
       edits=_edits(max(len(body) for body in BODIES)))
def test_damaged_chunk_body_decodes_or_raises_format_error(chunk, edits):
    body = _damage(BODIES[chunk], edits)
    with suppress(TraceFormatError):
        batch = decode_chunk(body)
        batch.kind_counts()
        batch.events()
    # The same body behind a valid CRC: every reader stays typed.
    _read(trace_header() + _FRAME.pack(len(body), zlib.crc32(body)) + body,
          (TraceFormatError,))


def _recovered_state(directory: Path) -> dict:
    return system_to_dict(recover(directory).system)


with tempfile.TemporaryDirectory() as _workdir:
    _copy = Path(_workdir) / "state"
    shutil.copytree(FIXTURE, _copy)
    RECOVERED = _recovered_state(_copy)
SNAPSHOT = (FIXTURE / NEWEST).read_bytes()


@DAMAGE
@given(edits=_edits(len(SNAPSHOT)))
def test_damaged_snapshot_falls_back_to_older_generation(edits):
    with tempfile.TemporaryDirectory() as workdir:
        directory = Path(workdir) / "state"
        shutil.copytree(FIXTURE, directory)
        (directory / NEWEST).write_bytes(_damage(SNAPSHOT, edits))
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
        (directory / NEWEST).write_bytes(_damage(SNAPSHOT, edits))
        assert _recovered_state(directory) == RECOVERED
