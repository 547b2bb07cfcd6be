"""Crash safety for the trust state: WAL, snapshots, recovery, faults.

The live system journals every store mutation to an append-only binary WAL
(:mod:`.wal`) and periodically persists generational snapshots
(:mod:`.snapshots`); :mod:`.journal` wires both to a running
:class:`~repro.core.reputation_system.MultiDimensionalReputationSystem`,
and :mod:`.recovery` rebuilds the exact pre-crash state from the latest
good generation plus a WAL-tail replay through the live ingest path.
:mod:`.faults` injects the crashes the other four must survive.
"""

from .faults import CrashPlan, FaultyFile, SimulatedCrash, flip_byte, truncate_file
from .journal import (WAL_FILENAME, DurabilityManager, attach_journal,
                      detach_journal)
from .recovery import RecoveryResult, recover, replay_wal
from .snapshots import LoadedSnapshot, QuarantinedSnapshot, SnapshotStore
from .wal import (WalRecord, WalScan, WalWriter, encode_record, read_wal,
                  scan_wal, truncate_wal)

__all__ = [
    "CrashPlan", "DurabilityManager", "FaultyFile", "LoadedSnapshot",
    "QuarantinedSnapshot", "RecoveryResult", "SimulatedCrash",
    "SnapshotStore", "WAL_FILENAME", "WalRecord", "WalScan", "WalWriter",
    "attach_journal", "detach_journal", "encode_record", "flip_byte",
    "read_wal", "recover", "replay_wal", "scan_wal", "truncate_file", "truncate_wal",
]
