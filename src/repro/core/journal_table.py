"""The journal table: the one place a write-ahead record's shape is written.

Every public mutator of the four behavioural stores journals one record per
call, after its range checks and before it mutates:
``self.journal(kind, *values)``, with its arguments in order.
:data:`JOURNAL_RECORDS` names, for each record kind, the façade attribute
of the store that emits it, the mutator that emits and replays it, and
that mutator's id fields (strings) and number fields (finite ints or
floats), in argument order.

A store's default sink is :func:`check_record`, so a system without a WAL
refuses exactly the records a journalled one refuses.  The WAL sink in
:mod:`repro.core.durability.journal` runs the same check, then writes the
values under their field names; replay reads them back with
:func:`journal_fields` and calls the mutator again, so nothing a live
system journals can be rejected on replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Tuple

__all__ = ["JOURNAL_RECORDS", "JournalSink", "RecordKind", "check_record",
           "journal_fields"]

#: Journal hook signature shared by every store: ``sink(kind, *values)``.
JournalSink = Callable[..., object]


@dataclass(frozen=True)
class RecordKind:
    """Where one record kind comes from and what it carries."""

    #: Façade attribute of the store whose mutator emits the record.
    store: str
    #: Name of that mutator; replay calls it with the record's fields.
    mutator: str
    #: String fields, then number fields, in the mutator's argument order.
    ids: Tuple[str, ...]
    numbers: Tuple[str, ...] = ()

    @property
    def fields(self) -> Tuple[str, ...]:
        return self.ids + self.numbers


JOURNAL_RECORDS: Dict[str, RecordKind] = {
    "eval.retention": RecordKind("evaluations", "record_retention",
                                 ("user", "file"),
                                 ("retention_seconds", "timestamp")),
    "eval.vote": RecordKind("evaluations", "record_vote", ("user", "file"),
                            ("vote", "timestamp")),
    "eval.implicit": RecordKind("evaluations", "record_implicit",
                                ("user", "file"), ("implicit", "timestamp")),
    "eval.play": RecordKind("evaluations", "record_play", ("user", "file"),
                            ("play_fraction", "timestamp")),
    "eval.remove": RecordKind("evaluations", "remove", ("user", "file")),
    "ledger.download": RecordKind("ledger", "record_download",
                                  ("downloader", "uploader", "file"),
                                  ("size", "timestamp")),
    # Ledger pruning journals the call: it is a pure function of entries
    # earlier records rebuilt, so replay deletes the same ones.  Evaluation
    # pruning journals each ``eval.remove`` it performs instead.
    "ledger.prune": RecordKind("ledger", "prune_older_than", (),
                               ("cutoff",)),
    "user.rate": RecordKind("user_trust", "rate", ("rater", "ratee"),
                            ("rating",)),
    "user.friend": RecordKind("user_trust", "add_friend",
                              ("user", "friend")),
    "user.blacklist": RecordKind("user_trust", "add_to_blacklist",
                                 ("user", "target")),
    "user.unfriend": RecordKind("user_trust", "remove_friend",
                                ("user", "friend")),
    "user.unblacklist": RecordKind("user_trust", "remove_from_blacklist",
                                   ("user", "target")),
    "credit.record": RecordKind("credits", "record", ("user", "action"),
                                ("magnitude",)),
}


def _record_kind(kind: str) -> RecordKind:
    """The table entry of ``kind``; :class:`ValueError` if there is none."""
    try:
        return JOURNAL_RECORDS[kind]
    except KeyError:
        raise ValueError(f"unknown journal record kind {kind!r}") from None


def _finite(value: Any) -> bool:
    if type(value) is float:
        return math.isfinite(value)
    try:
        return (isinstance(value, (int, float))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:
        return False


def check_record(kind: str, *values: Any) -> RecordKind:
    """Refuse a record replay could not apply; return its table entry.

    An unknown kind, a wrong number of values, an id that is not a string
    or a number that is not a finite int or float raises
    :class:`ValueError`.  Range checks stay with the mutators, which run
    them before they journal.  This is every store's default sink.
    """
    spec = _record_kind(kind)
    split = len(spec.ids)
    if len(values) != split + len(spec.numbers):
        raise ValueError(f"{kind} takes {split + len(spec.numbers)} "
                         f"fields, got {len(values)}")
    for index, value in enumerate(values):
        if index < split:
            if not isinstance(value, str):
                raise ValueError(f"{kind} field {spec.fields[index]!r} must "
                                 f"be a string, got {value!r}")
        elif not _finite(value):
            raise ValueError(f"{kind} field {spec.fields[index]!r} must be "
                             f"a finite number, got {value!r}")
    return spec


def journal_fields(kind: str, payload: Mapping[str, Any]) -> List[Any]:
    """The checked fields of one decoded record, in mutator argument order.

    A missing field reads as ``None`` and fails the check; keys no field
    names are ignored.
    """
    values = [payload.get(name) for name in _record_kind(kind).fields]
    check_record(kind, *values)
    return values
