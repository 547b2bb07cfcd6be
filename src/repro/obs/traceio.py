"""Chunked binary columnar event traces: the million-event trace core.

JSONL tracing pays ~a microsecond of ``json`` per event on both sides of
the pipe; at the 10⁶-event workloads the throughput roadmap targets that
is the difference between tracing-by-default and tracing turned off.  This
module stores the same flat event records (see :mod:`repro.obs.events`) in
a compact, streamable binary layout:

* a fixed 12-byte file header — ``REPROTRC`` magic + format version +
  minor revision — so a foreign or truncated file is rejected before any
  byte is trusted; minor revisions are additive (new record families such
  as spans), so a reader for version 1 accepts any minor and older traces
  stay readable;
* the event stream follows as CRC32 length-prefixed **chunk frames**
  (``<u32 body length> <u32 CRC32(body)> <body>``, all little-endian — the
  same self-checking framing idiom as ``core/durability/wal.py``), each
  frame holding a bounded batch of events;
* inside a chunk the events are stored **columnar**: event kinds and
  string fields are dictionary-encoded per chunk, numeric columns are
  packed flat with :mod:`struct` (``<q``/``<d``), booleans and field
  presence are bitmaps, and anything irregular (nulls, mixed types,
  oversized ints) falls back to a canonical-JSON column so *no* record is
  unrepresentable.

Values round-trip exactly — ``int`` stays ``int``, ``bool`` stays
``bool``, ``float`` survives bit-for-bit — so re-serialising a decoded
trace with canonical JSON reproduces the direct JSONL export byte for
byte (``repro trace convert`` relies on this).

Writers (:class:`TraceWriter`, :class:`JsonlTraceWriter`) are streaming
sinks with bounded memory: a :class:`~repro.obs.recorder.Recorder` hands
every event record to one of them as it is recorded.  Readers stream too —
:class:`TraceReader` yields event dicts or whole :class:`ChunkBatch`
column batches, and :func:`iter_trace_events` transparently accepts either
JSONL or binary input so every consumer (report, monitor, dashboard,
diff, query) runs single-pass on both formats.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from collections import Counter
from pathlib import Path
from typing import (Any, BinaryIO, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from .events import read_events

__all__ = ["TRACE_MAGIC", "TRACE_VERSION", "TRACE_MINOR",
           "DEFAULT_CHUNK_EVENTS",
           "TraceFormatError", "TraceWriter", "JsonlTraceWriter",
           "TraceReader", "ChunkBatch", "Column", "encode_chunk",
           "decode_chunk", "is_binary_trace", "iter_trace_events",
           "open_trace_sink", "canonical_line", "trace_info"]

TRACE_MAGIC = b"REPROTRC"
TRACE_VERSION = 1
#: Additive format revision within version 1.  Minor 0: the PR 7 layout.
#: Minor 1: span records (``event == "span"``) — a new record family, no
#: layout change, so minor-0 readers of this codebase never existed that
#: could break and minor-0 traces remain fully readable.
TRACE_MINOR = 1

_HEADER = struct.Struct("<8sHH")   # magic, version, minor revision
_FRAME = struct.Struct("<II")      # body length, CRC32(body)
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

#: Events buffered per chunk before a frame is cut; the only memory the
#: writer holds.  4096 events keeps dictionaries hot without the buffer
#: ever mattering next to the interpreter itself.
DEFAULT_CHUNK_EVENTS = 4096

#: Sanity bound on one chunk body: a corrupt length prefix must not make
#: the reader allocate gigabytes before the CRC can reject it.
MAX_CHUNK_BYTES = 1 << 27

HEADER_SIZE = _HEADER.size

# Column type tags.
_T_INT64 = 0
_T_FLOAT64 = 1
_T_BOOL = 2
_T_STR = 3
_T_JSON = 4

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: byte value -> tuple of set bit positions, for fast bitmap expansion.
_BYTE_BITS = tuple(tuple(bit for bit in range(8) if byte >> bit & 1)
                   for byte in range(256))

#: byte value -> number of set bits, for fast presence counting.
_BYTE_POPCOUNT = tuple(bin(byte).count("1") for byte in range(256))


class TraceFormatError(ValueError):
    """A binary trace file is malformed, truncated, or foreign."""


def canonical_line(event: Mapping[str, Any]) -> str:
    """The canonical JSONL form of one event (sorted keys, compact)."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def trace_header() -> bytes:
    """The 12-byte file header every binary trace starts with."""
    return _HEADER.pack(TRACE_MAGIC, TRACE_VERSION, TRACE_MINOR)


# --------------------------------------------------------------------- #
# Chunk encoding                                                        #
# --------------------------------------------------------------------- #

def _pack_str(text: str, parts: List[bytes], width: struct.Struct) -> None:
    data = text.encode("utf-8")
    parts.append(width.pack(len(data)))
    parts.append(data)


def _presence_bitmap(indexes: Sequence[int], n_events: int) -> bytes:
    bitmap = bytearray((n_events + 7) // 8)
    for index in indexes:
        bitmap[index >> 3] |= 1 << (index & 7)
    return bytes(bitmap)


def _bitmap_indexes(bitmap: bytes) -> List[int]:
    indexes: List[int] = []
    extend = indexes.extend
    for byte_index, byte in enumerate(bitmap):
        if byte:
            base = byte_index << 3
            extend(base + bit for bit in _BYTE_BITS[byte])
    return indexes


def _column_type(values: Sequence[Any]) -> int:
    """Pick the tightest representation every present value fits."""
    all_bool = True
    all_int = True
    all_float = True
    all_str = True
    for value in values:
        kind = type(value)
        if kind is bool:
            all_int = all_float = all_str = False
            if not all_bool:
                return _T_JSON
        elif kind is int:
            all_bool = all_float = all_str = False
            if not all_int or not _INT64_MIN <= value <= _INT64_MAX:
                return _T_JSON
        elif kind is float:
            all_bool = all_int = all_str = False
            if not all_float:
                return _T_JSON
        elif kind is str:
            all_bool = all_int = all_float = False
            if not all_str:
                return _T_JSON
        else:
            return _T_JSON
    if all_bool:
        return _T_BOOL
    if all_int:
        return _T_INT64
    if all_float:
        return _T_FLOAT64
    return _T_STR


def _encode_column(name: str, indexes: Sequence[int], values: Sequence[Any],
                   n_events: int, parts: List[bytes]) -> None:
    _pack_str(name, parts, _U16)
    tag = _column_type(values)
    parts.append(bytes((tag,)))
    parts.append(_presence_bitmap(indexes, n_events))
    count = len(values)
    if tag == _T_INT64:
        parts.append(struct.pack(f"<{count}q", *values))
    elif tag == _T_FLOAT64:
        parts.append(struct.pack(f"<{count}d", *values))
    elif tag == _T_BOOL:
        parts.append(_presence_bitmap(
            [i for i, value in enumerate(values) if value], count))
    elif tag == _T_STR:
        unique = sorted(set(values))
        codes = {text: code for code, text in enumerate(unique)}
        parts.append(_U32.pack(len(unique)))
        for text in unique:
            _pack_str(text, parts, _U32)
        parts.append(struct.pack(f"<{count}I",
                                 *(codes[value] for value in values)))
    else:  # _T_JSON: canonical JSON array of the present values.
        blob = json.dumps(list(values), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        parts.append(_U32.pack(len(blob)))
        parts.append(blob)


def encode_chunk(events: Sequence[Mapping[str, Any]]) -> bytes:
    """Encode one batch of event dicts as a self-checking chunk frame.

    The encoding is canonical — kinds and column names are sorted, string
    dictionaries are sorted — so the same events always produce the same
    bytes, which keeps binary traces as diffable as the JSONL ones.
    """
    n_events = len(events)
    if n_events == 0:
        raise ValueError("cannot encode an empty chunk")

    kind_of: List[str] = []
    columns: Dict[str, Tuple[List[int], List[Any]]] = {}
    for index, event in enumerate(events):
        for name, value in event.items():
            if name == "event":
                continue
            slot = columns.get(name)
            if slot is None:
                slot = columns[name] = ([], [])
            slot[0].append(index)
            slot[1].append(value)
        kind_of.append(str(event.get("event", "unknown")))

    unique_kinds = sorted(set(kind_of))
    kind_codes = {kind: code for code, kind in enumerate(unique_kinds)}

    parts: List[bytes] = [_U32.pack(n_events), _U16.pack(len(unique_kinds))]
    for kind in unique_kinds:
        _pack_str(kind, parts, _U16)
    parts.append(struct.pack(f"<{n_events}H",
                             *(kind_codes[kind] for kind in kind_of)))
    parts.append(_U16.pack(len(columns)))
    for name in sorted(columns):
        indexes, values = columns[name]
        _encode_column(name, indexes, values, n_events, parts)

    body = b"".join(parts)
    if len(body) > MAX_CHUNK_BYTES:
        raise ValueError(f"chunk of {len(body)} bytes exceeds the "
                         f"{MAX_CHUNK_BYTES}-byte frame bound")
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


# --------------------------------------------------------------------- #
# Chunk decoding                                                        #
# --------------------------------------------------------------------- #

class Column:
    """One chunk column, decoded *lazily* from the CRC-verified body.

    Parsing a chunk only walks the column headers; a column's presence
    indexes and values are materialised the first time they are accessed.
    A columnar scan that touches two numeric columns therefore never pays
    for decoding the chunk's string dictionaries — that laziness is most
    of the binary format's scan advantage.
    """

    __slots__ = ("name", "tag", "count", "_n_events", "_body",
                 "_bitmap_offset", "_value_offset", "_indexes", "_values")

    def __init__(self, name: str, tag: int, count: int, n_events: int,
                 body: bytes, bitmap_offset: int, value_offset: int) -> None:
        self.name = name
        #: Type tag (``_T_*``) the column was stored under.
        self.tag = tag
        #: Number of events that carry this field.
        self.count = count
        self._n_events = n_events
        self._body = body
        self._bitmap_offset = bitmap_offset
        self._value_offset = value_offset
        self._indexes: Optional[Sequence[int]] = None
        self._values: Optional[Sequence[Any]] = None

    @property
    def indexes(self) -> Sequence[int]:
        """Indexes (into the chunk's events) where the field is present."""
        if self._indexes is None:
            if self.count == self._n_events:
                self._indexes = range(self._n_events)
            else:
                end = self._bitmap_offset + (self._n_events + 7) // 8
                self._indexes = _bitmap_indexes(
                    self._body[self._bitmap_offset:end])
        return self._indexes

    @property
    def values(self) -> Sequence[Any]:
        """Present values, aligned with :attr:`indexes`."""
        if self._values is None:
            try:
                self._values = self._decode_values()
            except (struct.error, IndexError, UnicodeDecodeError,
                    json.JSONDecodeError, RecursionError) as error:
                raise TraceFormatError(
                    f"undecodable column {self.name!r}: {error}") from None
        return self._values

    def _decode_values(self) -> Sequence[Any]:
        body = self._body
        offset = self._value_offset
        count = self.count
        tag = self.tag
        if tag == _T_INT64:
            return struct.unpack_from(f"<{count}q", body, offset)
        if tag == _T_FLOAT64:
            return struct.unpack_from(f"<{count}d", body, offset)
        if tag == _T_BOOL:
            value_len = (count + 7) // 8
            set_bits = set(_bitmap_indexes(body[offset:offset + value_len]))
            return [position in set_bits for position in range(count)]
        if tag == _T_STR:
            (n_unique,) = _U32.unpack_from(body, offset)
            offset += _U32.size
            unique: List[str] = []
            for _ in range(n_unique):
                text, offset = _read_str(body, offset, _U32)
                unique.append(text)
            codes = struct.unpack_from(f"<{count}I", body, offset)
            return [unique[code] for code in codes]
        # _T_JSON (the tag was validated when the chunk was parsed).
        (blob_len,) = _U32.unpack_from(body, offset)
        offset += _U32.size
        values = json.loads(body[offset:offset + blob_len].decode("utf-8"))
        if not isinstance(values, list) or len(values) != count:
            raise TraceFormatError(
                f"JSON column {self.name!r} does not match its "
                "presence bitmap")
        return values


class ChunkBatch:
    """One decoded chunk, still columnar — the fast aggregation view.

    Kind names and column values materialise on first access; counting
    events by kind via :meth:`kind_counts` or summing one numeric column
    via :meth:`column_values` costs only that column's decode.
    """

    __slots__ = ("n_events", "columns", "_kind_dict", "_kind_codes",
                 "_kinds")

    def __init__(self, n_events: int, kind_dict: List[str],
                 kind_codes: Sequence[int],
                 columns: Dict[str, Column]) -> None:
        self.n_events = n_events
        #: Column name -> :class:`Column`.
        self.columns = columns
        self._kind_dict = kind_dict
        self._kind_codes = kind_codes
        self._kinds: Optional[List[str]] = None

    @property
    def kinds(self) -> List[str]:
        """Per-event kind names (dictionary applied lazily, then cached)."""
        if self._kinds is None:
            kind_dict = self._kind_dict
            self._kinds = [kind_dict[code] for code in self._kind_codes]
        return self._kinds

    def kind_counts(self) -> Dict[str, int]:
        """Kind -> occurrences, without materialising per-event names."""
        code_counts = Counter(self._kind_codes)
        return {self._kind_dict[code]: code_counts[code]
                for code in sorted(code_counts)}

    def events(self) -> List[Dict[str, Any]]:
        """Materialise the chunk as per-event dicts (the slow, exact view)."""
        events: List[Dict[str, Any]] = [{"event": kind}
                                        for kind in self.kinds]
        for name in self.columns:
            column = self.columns[name]
            values = column.values
            for position, index in enumerate(column.indexes):
                events[index][name] = values[position]
        return events

    def column_values(self, name: str) -> Sequence[Any]:
        """Present values of one column (empty when the chunk lacks it)."""
        column = self.columns.get(name)
        return column.values if column is not None else ()


def _read_str(body: bytes, offset: int,
              width: struct.Struct) -> Tuple[str, int]:
    (length,) = width.unpack_from(body, offset)
    offset += width.size
    return body[offset:offset + length].decode("utf-8"), offset + length


def _parse_column(body: bytes, offset: int,
                  n_events: int) -> Tuple[Column, int]:
    """Walk one column's header and value extent without decoding values."""
    name, offset = _read_str(body, offset, _U16)
    tag = body[offset]
    offset += 1
    bitmap_offset = offset
    bitmap_len = (n_events + 7) // 8
    spare = n_events & 7
    if spare and body[offset + bitmap_len - 1] >> spare:
        raise TraceFormatError(
            f"column {name!r} marks events past the chunk's {n_events}")
    count = sum(map(_BYTE_POPCOUNT.__getitem__,  # repro: allow[NUM003] int popcounts
                    body[offset:offset + bitmap_len]))
    offset += bitmap_len
    value_offset = offset
    if tag in (_T_INT64, _T_FLOAT64):
        offset += 8 * count
    elif tag == _T_BOOL:
        offset += (count + 7) // 8
    elif tag == _T_STR:
        (n_unique,) = _U32.unpack_from(body, offset)
        offset += _U32.size
        for _ in range(n_unique):
            (length,) = _U32.unpack_from(body, offset)
            offset += _U32.size + length
        offset += 4 * count
    elif tag == _T_JSON:
        (blob_len,) = _U32.unpack_from(body, offset)
        offset += _U32.size + blob_len
    else:
        raise TraceFormatError(f"unknown column type tag {tag}")
    if offset > len(body):
        raise TraceFormatError(
            f"column {name!r} overruns its chunk body")
    return Column(name=name, tag=tag, count=count, n_events=n_events,
                  body=body, bitmap_offset=bitmap_offset,
                  value_offset=value_offset), offset


def decode_chunk(body: bytes) -> ChunkBatch:
    """Parse one chunk body (already CRC-verified) into lazy columns."""
    try:
        (n_events,) = _U32.unpack_from(body, 0)
        offset = _U32.size
        (n_kinds,) = _U16.unpack_from(body, offset)
        offset += _U16.size
        kind_dict: List[str] = []
        for _ in range(n_kinds):
            kind, offset = _read_str(body, offset, _U16)
            kind_dict.append(kind)
        kind_codes = struct.unpack_from(f"<{n_events}H", body, offset)
        if kind_codes and max(kind_codes) >= n_kinds:
            raise TraceFormatError(
                f"kind code {max(kind_codes)} outside the chunk's "
                f"{n_kinds}-entry kind dictionary")
        offset += 2 * n_events
        (n_columns,) = _U16.unpack_from(body, offset)
        offset += _U16.size
        columns: Dict[str, Column] = {}
        for _ in range(n_columns):
            column, offset = _parse_column(body, offset, n_events)
            columns[column.name] = column
    except (struct.error, IndexError, UnicodeDecodeError) as error:
        raise TraceFormatError(f"undecodable chunk body: {error}") from None
    return ChunkBatch(n_events=n_events, kind_dict=kind_dict,
                      kind_codes=kind_codes, columns=columns)


# --------------------------------------------------------------------- #
# Writers                                                               #
# --------------------------------------------------------------------- #

class TraceWriter:
    """Streaming binary trace sink with bounded memory.

    Buffers at most ``chunk_events`` records, then cuts one chunk frame.
    A :class:`~repro.obs.recorder.Recorder` constructed with
    ``trace_sink=TraceWriter(path)`` therefore traces a million-event run
    without ever holding it.  Always :meth:`close` (or use as a context
    manager) so the final partial chunk is flushed.
    """

    def __init__(self, path: Union[str, Path],
                 chunk_events: int = DEFAULT_CHUNK_EVENTS,
                 fileobj: Optional[BinaryIO] = None) -> None:
        if chunk_events < 1:
            raise ValueError(f"chunk_events must be >= 1, got {chunk_events}")
        self.path = Path(path)
        self.chunk_events = chunk_events
        self._buffer: List[Mapping[str, Any]] = []
        self.events_written = 0
        self.chunks_written = 0
        self._file: BinaryIO = (fileobj if fileobj is not None
                                else open(self.path, "wb"))
        self._closed = False
        self._file.write(trace_header())

    def append(self, record: Mapping[str, Any]) -> None:
        """Buffer one event record; cuts a chunk at the batch boundary."""
        if self._closed:
            raise ValueError("cannot append to a closed trace writer")
        self._buffer.append(record)
        if len(self._buffer) >= self.chunk_events:
            self.flush()

    def extend(self, records: Iterable[Mapping[str, Any]]) -> None:
        for record in records:
            self.append(record)

    def flush(self) -> None:
        """Cut the buffered events into one chunk frame (no-op if empty)."""
        if self._buffer:
            self._file.write(encode_chunk(self._buffer))
            self.events_written += len(self._buffer)
            self.chunks_written += 1
            self._buffer = []

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._file.close()
        self._closed = True

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class JsonlTraceWriter:
    """Streaming canonical-JSONL sink with the same interface.

    Lets ``--trace-out events.jsonl`` stream too: the file grows line by
    line as the :class:`~repro.obs.events.EventTrace` hands it records,
    one :func:`canonical_line` each, so the bytes are the canonical JSONL
    form of the run and ``repro trace convert`` of its binary twin
    reproduces them exactly.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.events_written = 0
        self._file = open(self.path, "w", encoding="utf-8")
        self._closed = False

    def append(self, record: Mapping[str, Any]) -> None:
        if self._closed:
            raise ValueError("cannot append to a closed trace writer")
        self._file.write(canonical_line(record) + "\n")
        self.events_written += 1

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._file.close()
        self._closed = True

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Extensions treated as the binary columnar format by the CLI.
BINARY_SUFFIXES = (".bin", ".trc")


def open_trace_sink(path: Union[str, Path],
                    chunk_events: int = DEFAULT_CHUNK_EVENTS
                    ) -> Union[TraceWriter, JsonlTraceWriter]:
    """A streaming sink for ``path``: binary for ``.bin``/``.trc``,
    canonical JSONL otherwise."""
    if str(path).endswith(BINARY_SUFFIXES):
        return TraceWriter(path, chunk_events=chunk_events)
    return JsonlTraceWriter(path)


# --------------------------------------------------------------------- #
# Readers                                                               #
# --------------------------------------------------------------------- #

class TraceReader:
    """Streams a binary trace: chunk frames -> column batches -> events.

    Corruption — bad magic, torn frame, CRC mismatch — raises
    :class:`TraceFormatError` at the offending frame; everything before it
    has already been yielded, so callers that want best-effort recovery
    (``repro trace inspect``) can catch and keep the prefix.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._file: BinaryIO = open(self.path, "rb")
        header = self._file.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE:
            self._file.close()
            raise TraceFormatError(f"{self.path}: short header")
        magic, version, minor = _HEADER.unpack(header)
        if magic != TRACE_MAGIC:
            self._file.close()
            raise TraceFormatError(f"{self.path}: bad magic")
        if version != TRACE_VERSION:
            self._file.close()
            raise TraceFormatError(
                f"{self.path}: unsupported trace version {version}")
        self.version = version
        #: Minor revision the file was written at.  Minors are additive
        #: (new record families only), so any minor of a supported version
        #: is readable — including minors newer than :data:`TRACE_MINOR`.
        self.minor = minor
        self._closed = False

    def batches(self) -> Iterator[ChunkBatch]:
        """Yield each chunk as a column batch (the fast scan path)."""
        offset = HEADER_SIZE
        while True:
            prefix = self._file.read(_FRAME.size)
            if not prefix:
                return
            if len(prefix) < _FRAME.size:
                raise TraceFormatError(
                    f"{self.path}: torn frame prefix at byte {offset}")
            length, crc = _FRAME.unpack(prefix)
            if length == 0 or length > MAX_CHUNK_BYTES:
                raise TraceFormatError(
                    f"{self.path}: implausible frame length at byte {offset}")
            body = self._file.read(length)
            if len(body) < length:
                raise TraceFormatError(
                    f"{self.path}: torn frame body at byte {offset}")
            if zlib.crc32(body) != crc:
                raise TraceFormatError(
                    f"{self.path}: CRC mismatch at byte {offset}")
            offset += _FRAME.size + length
            yield decode_chunk(body)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        """Yield event dicts, one chunk at a time."""
        for batch in self.batches():
            yield from batch.events()

    def close(self) -> None:
        if not self._closed:
            self._file.close()
            self._closed = True

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def is_binary_trace(path: Union[str, Path]) -> bool:
    """True when ``path`` starts with the binary trace magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(TRACE_MAGIC)) == TRACE_MAGIC
    except OSError:
        return False


def _column_time_bounds(column: Column) -> Optional[Tuple[float, float]]:
    """Min/max over the numeric values of a chunk's ``t`` column.

    Decoding one float column is the only cost; None means the chunk has
    no numeric timestamps at all (so no event in it can pass a filter).
    """
    if column.tag in (_T_INT64, _T_FLOAT64):
        values = column.values
        if not values:
            return None
        return float(min(values)), float(max(values))
    numeric = [float(value) for value in column.values
               if isinstance(value, (int, float))]
    if not numeric:
        return None
    return min(numeric), max(numeric)


def _in_window(t: Any, since: Optional[float], until: Optional[float]) -> bool:
    """Half-open ``[since, until)`` test; non-numeric times never match."""
    if not isinstance(t, (int, float)):
        return False
    t_value = float(t)
    if since is not None and t_value < since:
        return False
    return not (until is not None and t_value >= until)


def iter_trace_events(path: Union[str, Path],
                      since: Optional[float] = None,
                      until: Optional[float] = None
                      ) -> Iterator[Dict[str, Any]]:
    """Stream events from a trace file, JSONL or binary, transparently.

    The unified entry point every trace consumer goes through: the format
    is sniffed from the file's first bytes (never the extension), and the
    result is a generator either way — consumers stay single-pass and
    bounded-memory regardless of how the trace was captured.

    ``since``/``until`` restrict the stream to events whose sim time falls
    in the half-open window ``[since, until)`` (events without a numeric
    ``t`` are dropped when a filter is set).  On binary traces the filter
    first checks each chunk's ``t``-column min/max — thanks to lazy column
    decoding, a chunk entirely outside the window is skipped without
    decoding any of its other columns.
    """
    if since is None and until is None:
        if is_binary_trace(path):
            with TraceReader(path) as reader:
                yield from reader
        else:
            yield from read_events(str(path))
        return
    if is_binary_trace(path):
        with TraceReader(path) as reader:
            for batch in reader.batches():
                column = batch.columns.get("t")
                if column is None:
                    continue
                bounds = _column_time_bounds(column)
                if bounds is None:
                    continue
                t_min, t_max = bounds
                if since is not None and t_max < since:
                    continue
                if until is not None and t_min >= until:
                    continue
                for event in batch.events():
                    if _in_window(event.get("t"), since, until):
                        yield event
    else:
        for event in read_events(str(path)):
            if _in_window(event.get("t"), since, until):
                yield event


def trace_info(path: Union[str, Path]) -> Dict[str, Any]:
    """One streaming pass of bookkeeping for ``repro trace inspect``.

    Never raises on a corrupt binary tail: the valid prefix is counted and
    ``truncated``/``error`` report what stopped the scan, mirroring the
    WAL inspector's longest-valid-prefix contract.
    """
    binary = is_binary_trace(path)
    info: Dict[str, Any] = {
        "path": str(path),
        "format": "binary" if binary else "jsonl",
        "file_bytes": os.path.getsize(path),
        "events": 0,
        "chunks": 0,
        "kinds": {},
        "start_time": 0.0,
        "end_time": 0.0,
        "truncated": False,
        "error": None,
    }
    if binary:
        info["version"] = TRACE_VERSION
        info["minor"] = None
    kinds: Dict[str, int] = {}
    t_min = float("inf")
    t_max = float("-inf")

    def _absorb_batch(batch: ChunkBatch) -> None:
        nonlocal t_min, t_max
        info["events"] += batch.n_events
        info["chunks"] += 1
        for kind, count in batch.kind_counts().items():
            kinds[kind] = kinds.get(kind, 0) + count
        column = batch.columns.get("t")
        if column is None:
            return
        if column.tag in (_T_INT64, _T_FLOAT64):
            values = column.values
            if values:
                t_min = min(t_min, min(values))
                t_max = max(t_max, max(values))
        else:
            for t in column.values:
                if isinstance(t, (int, float)):
                    t_value = float(t)
                    t_min = min(t_min, t_value)
                    t_max = max(t_max, t_value)

    try:
        if binary:
            with TraceReader(path) as reader:
                info["minor"] = reader.minor
                for batch in reader.batches():
                    _absorb_batch(batch)
        else:
            for event in read_events(str(path)):
                info["events"] += 1
                kind = str(event.get("event", "unknown"))
                kinds[kind] = kinds.get(kind, 0) + 1
                t = event.get("t")
                if isinstance(t, (int, float)):
                    t_value = float(t)
                    t_min = min(t_min, t_value)
                    t_max = max(t_max, t_value)
    except (TraceFormatError, ValueError) as error:
        info["truncated"] = True
        info["error"] = str(error)
    info["kinds"] = dict(sorted(kinds.items()))
    if info["events"]:
        info["start_time"] = t_min
        info["end_time"] = t_max
    return info
