"""Trace persistence: JSONL and CSV round-trips.

The Maze log format is one record per line; we mirror that with JSON lines
(lossless) and CSV (interoperable).  Both formats carry the ground-truth
``is_fake`` flag so persisted traces stay benchmark-scorable.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterator, Optional, Union

from .records import DownloadRecord, DownloadTrace

__all__ = ["write_jsonl", "read_jsonl", "iter_jsonl", "write_csv",
           "read_csv", "iter_csv"]

_FIELDS = ["uploader_id", "downloader_id", "timestamp", "content_hash",
           "filename", "size_bytes", "is_fake"]
#: Fields a record cannot be read without; the rest have defaults.
_REQUIRED = _FIELDS[:5]


def _record_to_dict(record: DownloadRecord) -> dict:
    return {
        "uploader_id": record.uploader_id,
        "downloader_id": record.downloader_id,
        "timestamp": record.timestamp,
        "content_hash": record.content_hash,
        "filename": record.filename,
        "size_bytes": record.size_bytes,
        "is_fake": record.is_fake,
    }


def _record_from_dict(data: object, where: str) -> DownloadRecord:
    """One record from a decoded line; ``ValueError`` naming ``where``
    (``path:line``) for a non-object, a missing field or a bad value."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object, "
                         f"got {type(data).__name__}")
    missing = [name for name in _REQUIRED if data.get(name) is None]
    if missing:
        raise ValueError(f"{where}: missing field {missing[0]!r}")
    try:
        return DownloadRecord(
            uploader_id=str(data["uploader_id"]),
            downloader_id=str(data["downloader_id"]),
            timestamp=_number(data, "timestamp"),
            content_hash=str(data["content_hash"]),
            filename=str(data["filename"]),
            size_bytes=_number(data, "size_bytes", 0.0),
            is_fake=_parse_bool(data.get("is_fake", False)),
        )
    except ValueError as error:
        raise ValueError(f"{where}: {error}") from None


def _number(data: dict, name: str, default: Optional[float] = None) -> float:
    """Field ``name`` as a finite float (``default`` when absent)."""
    value = data.get(name)
    if value is None and default is not None:
        return default
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ValueError(f"field {name!r} is not a number: {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"field {name!r} is not finite: {value!r}")
    return number


def _parse_bool(value: object) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        return value.strip().lower() in ("true", "1", "yes")
    return bool(value)


def write_jsonl(trace: DownloadTrace, path: Union[str, Path]) -> None:
    """Write one JSON object per record."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in trace:
            handle.write(json.dumps(_record_to_dict(record)) + "\n")


def iter_jsonl(path: Union[str, Path]) -> Iterator[DownloadRecord]:
    """Stream records written by :func:`write_jsonl`, one at a time.

    A generator, so consumers that only need one pass (statistics,
    filtering) never hold the whole trace; blank lines are ignored.  A line
    that is not a JSON object with every field raises ``ValueError``
    naming the file and line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{number}"
            try:
                data = json.loads(line)
            except (ValueError, RecursionError) as error:
                # RecursionError: a line nested deeper than the parser's
                # stack, e.g. 200k opening brackets.
                raise ValueError(
                    f"{where}: not JSON ({type(error).__name__})") from None
            yield _record_from_dict(data, where)


def read_jsonl(path: Union[str, Path]) -> DownloadTrace:
    """Read a trace written by :func:`write_jsonl` (blank lines ignored)."""
    trace = DownloadTrace()
    for record in iter_jsonl(path):
        trace.append(record)
    return trace


def write_csv(trace: DownloadTrace, path: Union[str, Path]) -> None:
    """Write a header row plus one CSV row per record."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_FIELDS)
        writer.writeheader()
        for record in trace:
            writer.writerow(_record_to_dict(record))


def iter_csv(path: Union[str, Path]) -> Iterator[DownloadRecord]:
    """Stream records written by :func:`write_csv`, one at a time.

    A row missing a field or holding a bad value raises ``ValueError``
    naming the file and line.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            yield _record_from_dict(row, f"{path}:{reader.line_num}")


def read_csv(path: Union[str, Path]) -> DownloadTrace:
    """Read a trace written by :func:`write_csv`."""
    trace = DownloadTrace()
    for record in iter_csv(path):
        trace.append(record)
    return trace
