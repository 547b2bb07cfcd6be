"""Generational snapshots of the reputation-system state.

A snapshot is a v2 :mod:`repro.core.persistence` document written
atomically (temp file + ``rename`` + directory fsync) under the name
``snapshot-<last_seq:020d>.json`` — the zero-padded journal sequence it is
current through doubles as the generation number, so lexicographic order is
recovery order.  Old generations are pruned down to
:data:`KEEP_GENERATIONS` so the directory stays bounded, leaving older
generations for a corrupt latest one to fall back to.

Corruption handling is quarantine-first: a snapshot that fails JSON
parsing, checksum verification or restore is renamed to ``*.corrupt``
(preserved for post-mortem, never re-read) and the next-older generation is
tried.  Only when every generation is exhausted does loading fail.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..persistence import (save_system, system_from_dict, wal_last_seq)
from ..reputation_system import MultiDimensionalReputationSystem

__all__ = ["SnapshotStore", "LoadedSnapshot", "QuarantinedSnapshot",
           "SNAPSHOT_PATTERN", "KEEP_GENERATIONS"]

SNAPSHOT_PATTERN = re.compile(r"^snapshot-(\d{20})\.json$")

#: Generations a write leaves on disk, the newest included.
KEEP_GENERATIONS = 3


@dataclass(frozen=True)
class QuarantinedSnapshot:
    """One generation set aside because it could not be trusted."""

    original: Path
    quarantined: Path
    reason: str


@dataclass
class LoadedSnapshot:
    """The newest generation that restored cleanly."""

    system: MultiDimensionalReputationSystem
    path: Path
    #: Journal sequence the snapshot is current through.
    last_seq: int
    #: Generations that failed verification on the way here (newest first).
    quarantined: List[QuarantinedSnapshot] = field(default_factory=list)


class SnapshotStore:
    """Writes, prunes, and fault-tolerantly reloads snapshot generations."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    def path_for(self, last_seq: int) -> Path:
        return self.directory / f"snapshot-{last_seq:020d}.json"

    def generations(self) -> List[Tuple[int, Path]]:
        """All on-disk generations, oldest first (quarantined excluded)."""
        found: List[Tuple[int, Path]] = []
        if not self.directory.is_dir():
            return found
        for entry in sorted(os.listdir(self.directory)):
            match = SNAPSHOT_PATTERN.match(entry)
            if match:
                found.append((int(match.group(1)), self.directory / entry))
        return found

    # ------------------------------------------------------------------ #
    # Writing                                                            #
    # ------------------------------------------------------------------ #

    def write(self, system: MultiDimensionalReputationSystem,
              last_seq: int) -> Path:
        """Atomically persist one generation; prunes old ones afterwards.

        The temp-write + rename + directory-fsync dance guarantees a crash
        mid-snapshot leaves either the complete new generation or none of
        it — never a half-written file under the canonical name.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        final = self.path_for(last_seq)
        tmp = final.with_suffix(".json.tmp")
        save_system(system, tmp, last_seq=last_seq)
        with open(tmp, "rb") as handle:
            os.fsync(handle.fileno())
        os.replace(tmp, final)
        self._fsync_directory()
        self._prune()
        return final

    def _prune(self) -> None:
        for _seq, path in self.generations()[:-KEEP_GENERATIONS]:
            path.unlink()
        self._fsync_directory()

    def _fsync_directory(self) -> None:
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------ #
    # Loading                                                            #
    # ------------------------------------------------------------------ #

    def quarantine(self, path: Path, reason: str) -> QuarantinedSnapshot:
        """Rename a distrusted generation to ``*.corrupt`` (kept, not read)."""
        target = path.with_name(path.name + ".corrupt")
        os.replace(path, target)
        self._fsync_directory()
        return QuarantinedSnapshot(original=path, quarantined=target,
                                   reason=reason)

    def load_latest(self) -> Optional[LoadedSnapshot]:
        """Restore from the newest verifiable generation.

        Walks generations newest to oldest; each one that fails parsing,
        checksum verification, or restore is quarantined and the walk
        continues.  Returns ``None`` only when no generation exists at all;
        raises when generations existed but every one was corrupt (data
        loss the caller must not paper over).
        """
        generations = self.generations()
        if not generations:
            return None
        quarantined: List[QuarantinedSnapshot] = []
        for _seq, path in reversed(generations):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
                system = system_from_dict(data)
                last_seq = wal_last_seq(data)
            except (ValueError, KeyError, TypeError, OSError,
                    RecursionError) as error:
                quarantined.append(self.quarantine(path, reason=str(error)))
                continue
            return LoadedSnapshot(system=system, path=path,
                                  last_seq=last_seq, quarantined=quarantined)
        reasons = "; ".join(
            f"{q.original.name}: {q.reason}" for q in quarantined)
        raise ValueError(
            f"every snapshot generation in {self.directory} failed "
            f"verification ({reasons}); corrupt files were quarantined "
            f"as *.corrupt")
