"""Wiring a live reputation system to its write-ahead log.

:func:`attach_journal` points every store the journal table
(:mod:`repro.core.journal_table`) names at one sink; every store mutator
then emits its record *after* validation but *before* the mutation lands —
classic write-ahead ordering, so a crash between the append and the
in-memory apply costs at most one not-yet-applied record, which replay
re-applies.

:class:`DurabilityManager` owns the whole arrangement for one directory:
the :class:`~repro.core.durability.wal.WalWriter`, the
:class:`~repro.core.durability.snapshots.SnapshotStore`, and the policy for
when to cut a new snapshot generation.

**Safe points.**  Snapshots must never be cut from inside the journal sink:
at that moment the record is on disk but its mutation has not applied, so a
snapshot would stamp a ``last_seq`` it does not actually contain and replay
would wrongly skip that record.  :meth:`DurabilityManager.maybe_snapshot`
is therefore a *pull* API the owner calls between operations — the
simulator calls it on its maintenance tick.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, BinaryIO, Optional, Union

from ...obs.recorder import NULL_RECORDER, NullRecorder
from ..journal_table import JOURNAL_RECORDS, JournalSink, check_record
from ..reputation_system import MultiDimensionalReputationSystem
from .snapshots import SnapshotStore
from .wal import WalWriter

__all__ = ["DurabilityManager", "WAL_FILENAME", "attach_journal",
           "detach_journal"]

WAL_FILENAME = "journal.wal"


def attach_journal(system: MultiDimensionalReputationSystem,
                   sink: JournalSink) -> None:
    """Point every journalling store of ``system`` at one journal sink."""
    for store in sorted({spec.store for spec in JOURNAL_RECORDS.values()}):
        getattr(system, store).journal = sink


def detach_journal(system: MultiDimensionalReputationSystem) -> None:
    """Stop journalling ``system`` (e.g. before a throwaway what-if run);
    its stores go back to the default sink, which only checks records."""
    attach_journal(system, check_record)


class DurabilityManager:
    """WAL + snapshot lifecycle for one system in one directory.

    Layout inside ``directory``::

        journal.wal                     append-only record stream
        snapshot-<seq:020d>.json        generations, newest = authoritative
        snapshot-*.json.corrupt         quarantined (never re-read)

    ``snapshot_every`` counts journal records between generations; 0 means
    snapshots happen only when the owner calls :meth:`snapshot` explicitly.
    ``start_seq`` continues an existing journal (e.g. after recovery with a
    repaired WAL); a fresh directory starts at 0.
    """

    def __init__(self, system: MultiDimensionalReputationSystem,
                 directory: Union[str, Path], fsync: str = "batch",
                 snapshot_every: int = 0,
                 recorder: NullRecorder = NULL_RECORDER,
                 start_seq: int = 0,
                 fileobj: Optional[BinaryIO] = None) -> None:
        if snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {snapshot_every}")
        self.system = system
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.wal_path = self.directory / WAL_FILENAME
        self.snapshots = SnapshotStore(self.directory)
        self.snapshot_every = snapshot_every
        self.recorder = recorder
        self._writer = WalWriter(self.wal_path, fsync=fsync,
                                 start_seq=start_seq, fileobj=fileobj)
        self._records_since_snapshot = 0
        self._attached = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def attach(self) -> None:
        """Start journalling; writes the baseline generation if none exists.

        The baseline snapshot carries the config, so a directory that dies
        one record in is still recoverable — recovery never has to guess
        :class:`~repro.core.config.ReputationConfig` from thin air.
        """
        if self._closed:
            raise ValueError("cannot attach a closed DurabilityManager")
        attach_journal(self.system, self._journal)
        self._attached = True
        if not self.snapshots.generations():
            self.snapshot()

    def detach(self) -> None:
        detach_journal(self.system)
        self._attached = False

    def close(self, final_snapshot: bool = False) -> None:
        """Detach, optionally cut a last generation, and seal the WAL."""
        if self._closed:
            return
        if self._attached:
            self.detach()
        if final_snapshot:
            self.snapshot()
        self._writer.close()
        self._closed = True

    def abandon(self) -> None:
        """Stop as a killed process would: detach, and drop the WAL bytes
        not yet handed to the OS (:meth:`WalWriter.abandon`)."""
        if self._closed:
            return
        if self._attached:
            self.detach()
        self._writer.abandon()
        self._closed = True

    def __enter__(self) -> "DurabilityManager":
        self.attach()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Journal sink                                                       #
    # ------------------------------------------------------------------ #

    def _journal(self, kind: str, *values: Any) -> None:
        # encode_record refuses a record replay would reject before it is
        # written, and so before the mutator that emits it mutates anything.
        self._writer.append(kind, values)
        self._records_since_snapshot += 1
        self.recorder.inc("wal.appended")

    @property
    def last_seq(self) -> int:
        return self._writer.last_seq

    # ------------------------------------------------------------------ #
    # Snapshots (safe-point only — see module docstring)                 #
    # ------------------------------------------------------------------ #

    def maybe_snapshot(self) -> Optional[Path]:
        """Cut a generation if ``snapshot_every`` records have accumulated."""
        if (self.snapshot_every
                and self._records_since_snapshot >= self.snapshot_every):
            return self.snapshot()
        return None

    def snapshot(self) -> Path:
        """Sync the WAL, then persist a generation stamped with its seq."""
        if self._closed:
            raise ValueError("cannot snapshot a closed DurabilityManager")
        with self.recorder.span("snapshot.write"):
            self._writer.sync()
            path = self.snapshots.write(self.system, self._writer.last_seq)
            self._records_since_snapshot = 0
            self.recorder.inc("wal.snapshots")
            self.recorder.event("wal.snapshot",
                                wal_seq=self._writer.last_seq,
                                file=path.name)
        return path

    def sync(self) -> None:
        """Fsync the WAL (the ``"batch"`` policy's durability boundary)."""
        with self.recorder.span("wal.sync"):
            self._writer.sync()
