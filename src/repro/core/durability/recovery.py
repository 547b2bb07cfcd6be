"""Crash recovery: latest good snapshot + WAL-tail replay.

Recovery rebuilds the exact pre-crash state in three steps:

1. **Snapshot.**  :class:`~repro.core.durability.snapshots.SnapshotStore`
   restores the newest generation that verifies; corrupt generations are
   quarantined and older ones tried.
2. **Replay.**  The WAL's longest valid prefix is scanned; every record
   with ``seq`` greater than the snapshot's ``last_seq`` is fed through
   ``system.apply_record``, which reads the record's fields as
   :mod:`repro.core.journal_table` lists them and calls the mutator that
   table names — the *same* store mutators the live system used, so
   dirty-set tracking fires and the incremental pipeline patches matrices
   exactly as it would have live.  Payload keys the table does not list
   (journals from format-v3 builds stamp an owner number on most records)
   are ignored, so those logs replay unchanged.  A record the stores
   cannot apply (a missing field, a wrong type, an out-of-range value)
   ends the valid prefix like a failed CRC does.  With
   ``REPRO_CHECK_INVARIANTS=1`` the pipeline cross-checks every patched
   refresh against a full rebuild, making "bit-identical recovery" a
   machine-checked property rather than a hope.
3. **Repair** (optional).  A torn WAL tail, or the tail from the first
   unreplayable record on, is truncated so appends can resume cleanly
   after the last valid record.

No step ever silently drops data: truncation lengths, quarantined
generations and the stop reason are all reported in
:class:`RecoveryResult` and mirrored to the recorder as
``recovery.replayed_records`` / ``recovery.truncated_tail`` metrics and
``recovery.*`` trace events.  The replay loop runs inside one
``recovery.replay`` span whose counters tally the replayed records by kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ...obs.recorder import NULL_RECORDER, NullRecorder
from ...obs.spans import NULL_SPAN, NullSpan
from ..reputation_system import MultiDimensionalReputationSystem
from .journal import WAL_FILENAME
from .snapshots import QuarantinedSnapshot, SnapshotStore
from .wal import WalScan, read_wal, truncate_wal

__all__ = ["RecoveryResult", "recover", "replay_wal"]


@dataclass
class RecoveryResult:
    """Everything :func:`recover` did, for callers and for the CLI."""

    system: MultiDimensionalReputationSystem
    #: Generation the state was restored from.
    snapshot_path: Path
    #: Journal sequence the snapshot covered.
    snapshot_seq: int
    #: WAL records applied on top of the snapshot.
    replayed_records: int
    #: Final journal sequence of the recovered state.
    last_seq: int
    wal_path: Path
    #: ``None`` when no WAL file existed (snapshot-only recovery).
    wal_scan: Optional[WalScan]
    #: Bytes past the WAL's valid prefix (0 for a clean log).
    truncated_tail_bytes: int
    #: Why WAL decoding stopped early, when it did.
    truncation_reason: Optional[str]
    #: Generations quarantined on the way to a loadable snapshot.
    quarantined: List[QuarantinedSnapshot] = field(default_factory=list)
    #: True when a torn tail was physically truncated (``repair=True``).
    repaired: bool = False


def replay_wal(system: MultiDimensionalReputationSystem, scan: WalScan,
               after_seq: int = 0, span: NullSpan = NULL_SPAN
               ) -> Tuple[WalScan, int]:
    """Apply the records of ``scan`` past ``after_seq`` to ``system``.

    Returns the log's valid prefix and the number of records applied.  The
    prefix is ``scan`` cut before the first record the stores reject, just
    as a failed CRC cuts it; :func:`recover` and ``repro wal-inspect`` both
    end the log here.
    """
    replayed = 0
    for index, record in enumerate(scan.records):
        if record.seq <= after_seq:
            continue
        try:
            system.apply_record(record.kind, record.payload)
        except ValueError as error:
            return replace(
                scan, records=scan.records[:index], valid_bytes=record.offset,
                truncated=True,
                reason=f"unreplayable record at seq {record.seq}: {error}"
            ), replayed
        span.count(record.kind)
        replayed += 1
    return scan, replayed


def recover(directory: Union[str, Path],
            recorder: NullRecorder = NULL_RECORDER,
            repair: bool = False) -> RecoveryResult:
    """Rebuild the system state persisted under ``directory``.

    Raises :class:`FileNotFoundError` when the directory holds no
    durability state at all, and :class:`ValueError` when state exists but
    every snapshot generation failed verification — both are conditions a
    caller must see, not paper over.  Torn WAL tails, unreplayable records
    and quarantined generations, by contrast, are *expected* crash debris:
    they are reported in the result, never raised.
    """
    directory = Path(directory)
    store = SnapshotStore(directory)
    loaded = store.load_latest()
    if loaded is None:
        raise FileNotFoundError(
            f"no snapshot generations in {directory}; nothing to recover "
            f"(a journalled run writes its baseline generation on attach)")
    for entry in loaded.quarantined:
        recorder.event("recovery.quarantined", file=entry.original.name,
                       reason=entry.reason)

    system = loaded.system
    wal_path = directory / WAL_FILENAME
    scan: Optional[WalScan] = None
    replayed = 0
    if wal_path.exists():
        scan = read_wal(wal_path)
        with recorder.span("recovery.replay") as span:
            scan, replayed = replay_wal(system, scan,
                                        after_seq=loaded.last_seq, span=span)
        if replayed:
            system.recompute()

    truncated_tail = scan.tail_bytes if scan is not None else 0
    reason = scan.reason if scan is not None else None
    repaired = False
    if repair and scan is not None and truncated_tail > 0:
        truncate_wal(wal_path, scan)
        repaired = True

    last_seq = max(loaded.last_seq,
                   scan.last_seq if scan is not None else 0)
    recorder.inc("recovery.replayed_records", replayed)
    if truncated_tail:
        recorder.inc("recovery.truncated_tail", truncated_tail)
    recorder.event(
        "recovery.complete", snapshot=loaded.path.name,
        snapshot_seq=loaded.last_seq, replayed_records=replayed,
        last_seq=last_seq, truncated_tail_bytes=truncated_tail,
        truncation_reason=reason, repaired=repaired,
        quarantined=len(loaded.quarantined))

    return RecoveryResult(
        system=system, snapshot_path=loaded.path,
        snapshot_seq=loaded.last_seq, replayed_records=replayed,
        last_seq=last_seq, wal_path=wal_path, wal_scan=scan,
        truncated_tail_bytes=truncated_tail, truncation_reason=reason,
        quarantined=loaded.quarantined, repaired=repaired)
