"""The append-only binary write-ahead log.

One WAL file holds the totally-ordered stream of store mutations a
journalled :class:`~repro.core.reputation_system
.MultiDimensionalReputationSystem` performed.  The format is deliberately
boring — every design choice serves torn-write recovery:

* a fixed 12-byte header (``REPROWAL`` magic + format version) so a
  truncated or foreign file is rejected before any record is trusted;
* length-prefixed frames: ``<u32 body length> <u32 CRC32(body)> <body>``,
  body = ``<u64 sequence> <canonical JSON record>`` — all little-endian;
* monotonic sequence numbers (+1 per record) so a dropped or duplicated
  frame is detected even when its CRC happens to check out;
* appends only.  Nothing in the file is ever rewritten, so the only
  corruption an OS crash can produce mid-file is a torn tail — and the
  reader treats *any* invalid frame as end-of-log, reporting the longest
  valid prefix instead of raising.

Durability policy is explicit: ``fsync="always"`` syncs per append,
``"batch"`` syncs only on :meth:`WalWriter.sync` (the caller picks the
boundary — e.g. one simulator maintenance tick), ``"none"`` leaves flushing
to the OS.  The fault-injection tests kill writers at every one of these
boundaries and assert recovery still yields a prefix.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _escape_string
from pathlib import Path
from typing import (Any, BinaryIO, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..journal_table import JOURNAL_RECORDS, RecordKind, check_record

__all__ = ["WAL_MAGIC", "WAL_VERSION", "WalRecord", "WalScan", "WalWriter",
           "encode_record", "read_wal", "scan_wal", "truncate_wal",
           "wal_header"]

WAL_MAGIC = b"REPROWAL"
WAL_VERSION = 1

_HEADER = struct.Struct("<8sHH")  # magic, version, reserved flags
_FRAME = struct.Struct("<II")     # body length, CRC32(body)
_SEQ = struct.Struct("<Q")

#: Sanity bound on one frame body; a corrupt length prefix must not make
#: the reader try to allocate gigabytes before the CRC can reject it.
MAX_RECORD_BYTES = 1 << 26

HEADER_SIZE = _HEADER.size
FRAME_OVERHEAD = _FRAME.size


@dataclass(frozen=True)
class WalRecord:
    """One decoded journal record."""

    seq: int
    kind: str
    payload: Dict[str, Any]
    #: Byte offset of the frame start within the WAL file.
    offset: int
    #: Total frame size in bytes (prefix + body).
    frame_bytes: int


@dataclass(frozen=True)
class WalScan:
    """The longest valid prefix of a WAL file, plus what ended it.

    ``truncated`` is True when bytes follow the valid prefix (torn tail,
    CRC mismatch, sequence gap, garbage); ``reason`` says why decoding
    stopped.  A clean end-of-file yields ``truncated=False``.
    """

    records: List[WalRecord]
    #: Bytes of the file covered by the header + valid records; a repair
    #: truncates the file to exactly this length.
    valid_bytes: int
    truncated: bool
    reason: Optional[str]
    file_bytes: int

    @property
    def last_seq(self) -> int:
        """Sequence number of the last valid record (0 when none)."""
        return self.records[-1].seq if self.records else 0

    @property
    def tail_bytes(self) -> int:
        """Bytes past the valid prefix (0 for a clean log)."""
        return self.file_bytes - self.valid_bytes


def wal_header() -> bytes:
    """The 12-byte file header every WAL starts with."""
    return _HEADER.pack(WAL_MAGIC, WAL_VERSION, 0)


def _number(value: Any) -> str:
    """What ``json.dumps`` writes for a checked journal number.

    Int and float subclasses (``numpy.float64``, say) go through the base
    type's ``__repr__``, as the ``json`` encoder does.
    """
    if isinstance(value, float):
        return float.__repr__(value)
    return int.__repr__(value)


class _Template:
    """The record body of one journal kind, with its field names
    pre-sorted and pre-escaped: only the values are encoded per record."""

    __slots__ = ("text", "slots")

    def __init__(self, kind: str, spec: RecordKind) -> None:
        order = sorted(range(len(spec.fields)), key=spec.fields.__getitem__)
        # Every name in the journal table is free of "%".
        members = ",".join(_escape_string(spec.fields[index]) + ":%s"
                           for index in order)
        self.text = '{"data":{%s},"kind":%s}' % (members, _escape_string(kind))
        split = len(spec.ids)
        #: (encoder, argument index) in sorted field order.
        self.slots = tuple((_escape_string if index < split else _number,
                            index) for index in order)


#: One template per journal kind, built once from the journal table.
_TEMPLATES = {kind: _Template(kind, spec)
              for kind, spec in JOURNAL_RECORDS.items()}


def encode_record(seq: int, kind: str, values: Sequence[Any]) -> bytes:
    """Encode one journal record as a self-checking frame.

    ``values`` are the record's fields in mutator argument order, as the
    journal table (:mod:`repro.core.journal_table`) names them; a record
    :func:`~repro.core.journal_table.check_record` refuses raises
    :class:`ValueError` before any byte is built.  The JSON body is what
    ``json.dumps({"data": fields, "kind": kind}, sort_keys=True,
    separators=(",", ":"))`` writes, so the same logical record always
    produces the same bytes — WALs written by two runs of the same seeded
    workload are byte-identical, which the CLI crash tests rely on to
    compare a killed run against an uninterrupted one.
    """
    if seq < 1:
        raise ValueError(f"sequence numbers start at 1, got {seq}")
    check_record(kind, *values)
    template = _TEMPLATES[kind]
    document = template.text % tuple([encode(values[index])
                                      for encode, index in template.slots])
    body = _SEQ.pack(seq) + document.encode("utf-8")
    if len(body) > MAX_RECORD_BYTES:
        raise ValueError(f"record of {len(body)} bytes exceeds the "
                         f"{MAX_RECORD_BYTES}-byte frame bound")
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


def _decode_body(body: bytes, offset: int,
                 frame_bytes: int) -> Tuple[Optional[WalRecord], Optional[str]]:
    """(record, None) on success, (None, reason) on malformed body."""
    seq = _SEQ.unpack_from(body)[0]
    try:
        document = json.loads(body[_SEQ.size:].decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError):
        # RecursionError: JSON nested deeper than the decoder's stack.
        return None, "undecodable record body"
    if (not isinstance(document, dict)
            or not isinstance(document.get("kind"), str)
            or not isinstance(document.get("data"), dict)):
        return None, "record body is not a {kind, data} document"
    return WalRecord(seq=seq, kind=document["kind"], payload=document["data"],
                     offset=offset, frame_bytes=frame_bytes), None


def scan_wal(data: bytes) -> WalScan:
    """Decode the longest valid record prefix of raw WAL bytes.

    Never raises on corruption: the first invalid byte — torn frame,
    failed CRC, sequence gap, undecodable body — ends the log, and the
    scan reports where and why.  A crashed writer's torn tail therefore
    costs at most the records past the last complete frame.
    """
    size = len(data)
    if size < HEADER_SIZE:
        return WalScan(records=[], valid_bytes=0, truncated=size > 0,
                       reason="short header" if size else None,
                       file_bytes=size)
    magic, version, _flags = _HEADER.unpack_from(data)
    if magic != WAL_MAGIC:
        return WalScan(records=[], valid_bytes=0, truncated=True,
                       reason="bad magic", file_bytes=size)
    if version != WAL_VERSION:
        return WalScan(records=[], valid_bytes=0, truncated=True,
                       reason=f"unsupported WAL version {version}",
                       file_bytes=size)

    records: List[WalRecord] = []
    offset = HEADER_SIZE
    previous_seq = 0

    def stop(reason: Optional[str]) -> WalScan:
        return WalScan(records=records, valid_bytes=offset,
                       truncated=reason is not None, reason=reason,
                       file_bytes=size)

    while offset < size:
        if size - offset < FRAME_OVERHEAD:
            return stop("torn frame prefix")
        length, crc = _FRAME.unpack_from(data, offset)
        if length < _SEQ.size or length > MAX_RECORD_BYTES:
            return stop("implausible frame length")
        body_start = offset + FRAME_OVERHEAD
        if size - body_start < length:
            return stop("torn frame body")
        body = data[body_start:body_start + length]
        if zlib.crc32(body) != crc:
            return stop("CRC mismatch")
        frame_bytes = FRAME_OVERHEAD + length
        record, reason = _decode_body(body, offset, frame_bytes)
        if record is None:
            return stop(reason)
        if records:
            if record.seq != previous_seq + 1:
                return stop(f"sequence gap ({previous_seq} -> {record.seq})")
        elif record.seq < 1:
            return stop("sequence numbers start at 1")
        records.append(record)
        previous_seq = record.seq
        offset += frame_bytes
    return stop(None)


def read_wal(path: Union[str, Path]) -> WalScan:
    """Read and :func:`scan_wal` a WAL file."""
    with open(path, "rb") as handle:
        return scan_wal(handle.read())


def truncate_wal(path: Union[str, Path], scan: WalScan) -> int:
    """Cut a scanned WAL back to its valid prefix; returns bytes removed.

    Recovery calls this before resuming appends so the next record lands
    directly after the last valid one instead of behind garbage that would
    poison every later scan.
    """
    removed = scan.tail_bytes
    if removed <= 0:
        return 0
    with open(path, "r+b") as handle:
        handle.truncate(scan.valid_bytes)
        handle.flush()
        os.fsync(handle.fileno())
    return removed


class WalWriter:
    """Appends self-checking frames to a WAL file.

    ``fsync`` picks the durability/throughput point: ``"always"`` syncs
    every append (each record survives an OS crash), ``"batch"`` syncs only
    on explicit :meth:`sync` calls, ``"none"`` never syncs (buffered;
    suitable for simulations where the artefact matters but mid-run power
    loss does not).  ``repro bench wal`` measures all three.

    ``fileobj`` lets tests substitute a fault-injecting file (see
    :class:`~repro.core.durability.faults.FaultyFile`); the writer then
    neither opens nor owns the underlying descriptor's path.
    """

    FSYNC_POLICIES = ("none", "batch", "always")

    def __init__(self, path: Union[str, Path], fsync: str = "batch",
                 start_seq: int = 0,
                 fileobj: Optional[BinaryIO] = None) -> None:
        if fsync not in self.FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {self.FSYNC_POLICIES}, "
                             f"got {fsync!r}")
        if start_seq < 0:
            raise ValueError(f"start_seq must be >= 0, got {start_seq}")
        self.path = Path(path)
        self.fsync_policy = fsync
        self._last_seq = start_seq
        self._appended = 0
        if fileobj is not None:
            self._file: BinaryIO = fileobj
        else:
            self._file = open(self.path, "ab")
        self._closed = False
        if self._file.tell() == 0:
            self._file.write(wal_header())

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record."""
        return self._last_seq

    @property
    def appended(self) -> int:
        """Records appended by this writer instance."""
        return self._appended

    def append(self, kind: str, values: Sequence[Any]) -> int:
        """Append one journal record (see :func:`encode_record`); returns
        its sequence number."""
        if self._closed:
            raise ValueError("cannot append to a closed WAL writer")
        seq = self._last_seq + 1
        self._file.write(encode_record(seq, kind, values))
        if self.fsync_policy == "always":
            self._sync_file()
        self._last_seq = seq
        self._appended += 1
        return seq

    def sync(self) -> None:
        """Flush buffers and fsync (the ``"batch"`` policy's boundary).

        Under ``"none"`` this only flushes to the OS — the policy promises
        the kernel never waits on the disk, even at explicit safe points.
        """
        if self._closed:
            return
        if self.fsync_policy == "none":
            self._file.flush()
        else:
            self._sync_file()

    def close(self) -> None:
        """Durably close the log (final fsync unless policy is "none")."""
        if self._closed:
            return
        if self.fsync_policy != "none":
            self._sync_file()
        else:
            self._file.flush()
        self._file.close()
        self._closed = True

    def abandon(self) -> None:
        """Close the log as a killed process would.

        Bytes still buffered in this process are dropped: the file keeps
        exactly what had reached the OS, and nothing more is written when
        the writer is garbage-collected.
        """
        if self._closed:
            return
        reached = os.fstat(self._file.fileno()).st_size
        self._file.flush()
        os.ftruncate(self._file.fileno(), reached)
        self._file.close()
        self._closed = True

    def _sync_file(self) -> None:
        self._file.flush()
        # FaultyFile intercepts fsync to inject kills at sync boundaries;
        # a plain file object goes through os.fsync.
        fsync = getattr(self._file, "fsync", None)
        if callable(fsync):
            fsync()
        else:
            os.fsync(self._file.fileno())

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
