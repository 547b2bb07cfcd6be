"""File evaluations: explicit votes, implicit retention, and Eq. 1 blending.

Section 3.1.1 of the paper distinguishes two evaluation channels:

* **Explicit** -- a vote in ``[0, 1]`` cast by the user.  Accurate but rare
  (fewer than 1% of popular KaZaA files are voted on), hence the incentive
  mechanism rewards voting.
* **Implicit** -- inferred from the file's *retention time* on the user's
  machine: a fake file is deleted quickly, a good one is kept.  Free, covers
  100% of held files, but noisier.

Eq. 1 combines them::

    E_ij = IE_ij                      if the user has not voted
    E_ij = IE_ij * eta + EE_ij * rho  if the user voted

This module provides the value objects and the per-user / system-wide stores
for evaluations, including the Section 4.3 pruning rule ("users only need to
preserve the evaluations within an interval").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from .config import DEFAULT_CONFIG, ReputationConfig
from .journal_table import JournalSink, check_record

__all__ = [
    "FileEvaluation",
    "implicit_from_retention",
    "EvaluationStore",
]

#: What :meth:`EvaluationStore.file_evaluations` returns for a file nobody
#: evaluated; not kept per file, so unknown ids cost the store nothing.
_NO_EVALUATIONS: Mapping[str, float] = MappingProxyType({})


def implicit_from_retention(retention_seconds: float,
                            saturation_seconds: float) -> float:
    """Map a file's retention time to an implicit evaluation in [0, 1].

    Retention grows linearly to 1.0 at ``saturation_seconds`` and is clamped
    afterwards; a file deleted immediately scores 0.  Linear-with-saturation
    is the simplest monotone map consistent with the paper's premise that
    keeping a file longer signals a better opinion of it.
    """
    if saturation_seconds <= 0:
        raise ValueError("saturation_seconds must be positive")
    if retention_seconds < 0:
        raise ValueError("retention_seconds must be >= 0")
    return min(retention_seconds / saturation_seconds, 1.0)


@dataclass
class FileEvaluation:
    """A single user's evaluation of a single file.

    ``implicit`` is always present once the user holds the file;
    ``explicit`` is present only if the user voted.  ``play_fraction``
    carries the optional play-time channel the paper's introduction
    mentions ("the actually play time of a movie file can also be taken as
    a user's evaluation ... but it depends on the type of file"): for
    playable media, watching most of a file is stronger evidence than
    merely keeping it, so the effective implicit evaluation is the maximum
    of the retention and play signals.  ``timestamp`` is the time of the
    most recent update and drives interval pruning.
    """

    user_id: str
    file_id: str
    implicit: float = 0.0
    explicit: Optional[float] = None
    play_fraction: Optional[float] = None
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.implicit <= 1.0:
            raise ValueError(f"implicit evaluation must be in [0,1], got {self.implicit}")
        if self.explicit is not None and not 0.0 <= self.explicit <= 1.0:
            raise ValueError(f"explicit evaluation must be in [0,1], got {self.explicit}")
        if self.play_fraction is not None and not 0.0 <= self.play_fraction <= 1.0:
            raise ValueError(
                f"play_fraction must be in [0,1], got {self.play_fraction}")

    def effective_implicit(self) -> float:
        """The implicit channel: retention, boosted by play time if known."""
        if self.play_fraction is None:
            return self.implicit
        return max(self.implicit, self.play_fraction)

    def value(self, config: ReputationConfig = DEFAULT_CONFIG) -> float:
        """Eq. 1: the blended evaluation ``E_ij``."""
        implicit = self.effective_implicit()
        if self.explicit is None:
            return implicit
        return implicit * config.eta + self.explicit * config.rho

    @property
    def has_vote(self) -> bool:
        return self.explicit is not None


@dataclass
class EvaluationStore:
    """All evaluations known to the system, indexed by user and by file.

    The store is the substrate from which every trust dimension is derived:
    file-based trust reads per-user evaluation vectors, Eq. 9 reads per-file
    evaluation lists.
    """

    config: ReputationConfig = field(default=DEFAULT_CONFIG)
    _by_user: Dict[str, Dict[str, FileEvaluation]] = field(default_factory=dict)
    _by_file: Dict[str, Dict[str, FileEvaluation]] = field(default_factory=dict)
    #: ``(user, file)`` pairs whose evaluation changed since the last
    #: :meth:`clear_dirty` — the delta the incremental pipeline rebuilds
    #: from; the dirty files derive from them.
    _dirty_pairs: Set[Tuple[str, str]] = field(default_factory=set)
    #: file id -> the read-only Eq. 1 map :meth:`file_evaluations` handed
    #: out, kept until the next write to that file drops it.  A map is
    #: replaced, never changed, so every map handed out stays as it was.
    _file_maps: Dict[str, Mapping[str, float]] = field(
        default_factory=dict, repr=False, compare=False)
    #: Write-ahead hook (see :mod:`~repro.core.journal_table`): public
    #: mutators hand it their record after validating and before mutating.
    #: The default only checks the record; a WAL sink also persists it.
    journal: JournalSink = field(default=check_record, repr=False,
                                 compare=False)

    # ------------------------------------------------------------------ #
    # Recording                                                          #
    # ------------------------------------------------------------------ #

    def record_retention(self, user_id: str, file_id: str,
                         retention_seconds: float,
                         timestamp: float = 0.0) -> FileEvaluation:
        """Record/refresh the implicit evaluation from retention time."""
        implicit = implicit_from_retention(
            retention_seconds, self.config.retention_saturation_seconds)
        self.journal("eval.retention", user_id, file_id, retention_seconds,
                     timestamp)
        return self._upsert(user_id, file_id, timestamp, implicit=implicit)

    def record_vote(self, user_id: str, file_id: str, vote: float,
                    timestamp: float = 0.0) -> FileEvaluation:
        """Record an explicit vote in [0, 1]."""
        if not 0.0 <= vote <= 1.0:
            raise ValueError(f"vote must be in [0,1], got {vote}")
        self.journal("eval.vote", user_id, file_id, vote, timestamp)
        return self._upsert(user_id, file_id, timestamp, explicit=vote)

    def record_implicit(self, user_id: str, file_id: str, implicit: float,
                        timestamp: float = 0.0) -> FileEvaluation:
        """Record an already-normalised implicit evaluation directly."""
        if not 0.0 <= implicit <= 1.0:
            raise ValueError(f"implicit must be in [0,1], got {implicit}")
        self.journal("eval.implicit", user_id, file_id, implicit, timestamp)
        return self._upsert(user_id, file_id, timestamp, implicit=implicit)

    def record_play(self, user_id: str, file_id: str, play_fraction: float,
                    timestamp: float = 0.0) -> FileEvaluation:
        """Record the fraction of a playable file the user consumed.

        Monotone: repeated plays only ever raise the stored fraction (the
        user has demonstrably consumed at least that much).
        """
        if not 0.0 <= play_fraction <= 1.0:
            raise ValueError(
                f"play_fraction must be in [0,1], got {play_fraction}")
        self.journal("eval.play", user_id, file_id, play_fraction, timestamp)
        return self._upsert(user_id, file_id, timestamp, play=play_fraction)

    def restore(self, user_id: str, file_id: str, implicit: float,
                explicit: Optional[float], play_fraction: Optional[float],
                timestamp: float) -> FileEvaluation:
        """Set one evaluation to a saved state, field for field.

        For loading a snapshot: nothing is journaled, and the fields are
        taken as saved rather than merged into an existing evaluation.
        """
        evaluation = self._upsert(user_id, file_id, timestamp,
                                  implicit=implicit, explicit=explicit)
        evaluation.play_fraction = play_fraction
        evaluation.timestamp = timestamp
        return evaluation

    def _upsert(self, user_id: str, file_id: str, timestamp: float,
                implicit: Optional[float] = None,
                explicit: Optional[float] = None,
                play: Optional[float] = None) -> FileEvaluation:
        """Create or fetch an evaluation and apply a write to it; marks the
        pair dirty and drops the file's map before any field moves."""
        self._dirty_pairs.add((user_id, file_id))
        self._file_maps.pop(file_id, None)
        per_user = self._by_user.setdefault(user_id, {})
        evaluation = per_user.get(file_id)
        if evaluation is None:
            evaluation = FileEvaluation(user_id=user_id, file_id=file_id,
                                        timestamp=timestamp)
            per_user[file_id] = evaluation
            self._by_file.setdefault(file_id, {})[user_id] = evaluation
        if implicit is not None:
            evaluation.implicit = implicit
        if explicit is not None:
            evaluation.explicit = explicit
        if play is not None and (evaluation.play_fraction is None
                                 or play > evaluation.play_fraction):
            evaluation.play_fraction = play
        evaluation.timestamp = max(evaluation.timestamp, timestamp)
        return evaluation

    def remove(self, user_id: str, file_id: str) -> None:
        """Drop one evaluation (e.g. the user deleted the file long ago)."""
        self.journal("eval.remove", user_id, file_id)
        self._dirty_pairs.add((user_id, file_id))
        self._file_maps.pop(file_id, None)
        per_user = self._by_user.get(user_id)
        if per_user and file_id in per_user:
            del per_user[file_id]
            if not per_user:
                del self._by_user[user_id]
        per_file = self._by_file.get(file_id)
        if per_file and user_id in per_file:
            del per_file[user_id]
            if not per_file:
                del self._by_file[file_id]

    def prune_older_than(self, cutoff_timestamp: float) -> int:
        """Section 4.3 pruning: drop evaluations last touched before cutoff.

        Returns the number of evaluations removed.
        """
        stale: List[Tuple[str, str]] = [
            (evaluation.user_id, evaluation.file_id)
            for evaluation in self._iter_all()
            if evaluation.timestamp < cutoff_timestamp
        ]
        for user_id, file_id in stale:
            self.remove(user_id, file_id)
        return len(stale)

    # ------------------------------------------------------------------ #
    # Delta tracking                                                     #
    # ------------------------------------------------------------------ #

    def dirty_pairs(self) -> Set[Tuple[str, str]]:
        """``(user, file)`` pairs upserted or removed since the last clear."""
        return set(self._dirty_pairs)

    def dirty_files(self) -> Set[str]:
        """Files touched (upserted/removed) since the last clear."""
        return {file_id for _, file_id in self._dirty_pairs}

    @property
    def has_dirty(self) -> bool:
        return bool(self._dirty_pairs)

    def clear_dirty(self) -> None:
        """Mark the current state as built; next deltas start from here."""
        self._dirty_pairs.clear()

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    def get(self, user_id: str, file_id: str) -> Optional[FileEvaluation]:
        return self._by_user.get(user_id, {}).get(file_id)

    def value(self, user_id: str, file_id: str) -> Optional[float]:
        """Eq. 1 value of one evaluation, or None if absent."""
        evaluation = self.get(user_id, file_id)
        if evaluation is None:
            return None
        return evaluation.value(self.config)

    def files_evaluated_by(self, user_id: str) -> Set[str]:
        return set(self._by_user.get(user_id, ()))

    def users_evaluating(self, file_id: str) -> Set[str]:
        return set(self._by_file.get(file_id, ()))

    def evaluation_vector(self, user_id: str) -> Dict[str, float]:
        """All of one user's Eq. 1 values keyed by file id."""
        return {
            file_id: evaluation.value(self.config)
            for file_id, evaluation in self._by_user.get(user_id, {}).items()
        }

    def shared_files(self, user_a: str, user_b: str) -> Set[str]:
        """The intersection F of files both users evaluated (Eq. 2)."""
        files_a = self._by_user.get(user_a)
        files_b = self._by_user.get(user_b)
        if not files_a or not files_b:
            return set()
        if len(files_a) > len(files_b):
            files_a, files_b = files_b, files_a
        return {file_id for file_id in files_a if file_id in files_b}

    def file_evaluations(self, file_id: str) -> Mapping[str, float]:
        """Eq. 1 values of every user who evaluated ``file_id``.

        The map is read-only and built once: every call until the next
        write to ``file_id`` (a record, :meth:`remove` or
        :meth:`prune_older_than`) returns the same object.  That write
        drops it and the next call builds a new one, so a map handed out
        earlier never changes.  Eq. 9 reads it per judgement, and file
        trust keeps it as the file's snapshot.
        """
        values = self._file_maps.get(file_id)
        if values is None:
            per_file = self._by_file.get(file_id)
            if not per_file:
                return _NO_EVALUATIONS
            config = self.config
            values = self._file_maps[file_id] = MappingProxyType({
                user_id: evaluation.value(config)
                for user_id, evaluation in per_file.items()
            })
        return values

    def users(self) -> Set[str]:
        return set(self._by_user)

    def files(self) -> Set[str]:
        return set(self._by_file)

    def vote_count(self, user_id: str) -> int:
        """How many of the user's evaluations carry an explicit vote."""
        return sum(1 for evaluation in self._by_user.get(user_id, {}).values()
                   if evaluation.has_vote)

    def __len__(self) -> int:
        return sum(len(per_user) for per_user in self._by_user.values())

    def _iter_all(self) -> Iterator[FileEvaluation]:
        for per_user in self._by_user.values():
            yield from per_user.values()

    def __iter__(self) -> Iterator[FileEvaluation]:
        return self._iter_all()
