"""Structured event tracing: append-only, simulation-time-keyed records.

Every event is a flat dict with three reserved fields — ``seq`` (emission
order), ``t`` (*simulation* time, never wall clock) and ``event`` (the kind)
— plus arbitrary caller fields.  Records serialise with sorted keys, so two
runs at the same seed produce byte-identical trace files; that determinism
is what lets CI diff a trace instead of eyeballing it.

An :class:`EventTrace` stores nothing: it numbers each event, counts its
kind and hands the record to its **sink** — any object with
``append(record)``: :class:`repro.obs.traceio.TraceWriter` (binary),
:class:`repro.obs.traceio.JsonlTraceWriter` (canonical JSONL), or a plain
``list`` for in-memory use.  A run therefore holds at most one writer
chunk of events however long it is.  Without a sink only the counts are
kept.

:func:`read_events` is a *generator*: consumers stream a JSONL trace one
record at a time instead of materialising it (``list(read_events(p))``
restores the old behaviour where needed).
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, Mapping, Optional, Union

__all__ = ["EventTrace", "read_events"]

FieldValue = Union[str, int, float, bool, None]


class EventTrace:
    """Numbers and counts events, and hands each record to its sink."""

    def __init__(self, sink: Optional[object] = None) -> None:
        self._sink = sink
        self._count = 0
        self._kinds: Dict[str, int] = {}

    def record(self, kind: str, t: float,
               **fields: FieldValue) -> Dict[str, FieldValue]:
        """Stamp one event and pass it to the sink; returns the record."""
        return self.record_fields(kind, t, fields)

    def record_fields(self, kind: str, t: float,
                      fields: Mapping[str, FieldValue]
                      ) -> Dict[str, FieldValue]:
        """:meth:`record` with the caller's fields as one mapping, which
        is copied into the record after ``seq``, ``t`` and ``event``."""
        for reserved in ("seq", "t", "event"):
            if reserved in fields:
                raise ValueError(f"field name {reserved!r} is reserved")
        record: Dict[str, FieldValue] = {
            "seq": self._count, "t": float(t), "event": kind}
        record.update(fields)
        self._count += 1
        self._kinds[kind] = self._kinds.get(kind, 0) + 1
        if self._sink is not None:
            self._sink.append(record)
        return record

    def __len__(self) -> int:
        return self._count

    def kinds(self) -> Dict[str, int]:
        """Event-kind -> occurrence count, sorted by kind."""
        return dict(sorted(self._kinds.items()))


def read_events(path: str) -> Iterator[Dict[str, FieldValue]]:
    """Stream a JSONL event trace written by
    :class:`~repro.obs.traceio.JsonlTraceWriter`.

    Yields one record dict per line; validation errors surface lazily as
    the offending line is reached, so a million-event trace is never held
    in memory.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as error:
                raise ValueError(
                    f"{path}:{line_number}: invalid JSON: {error}") from None
            if not isinstance(record, dict) or "event" not in record:
                raise ValueError(
                    f"{path}:{line_number}: not an event record")
            yield record
