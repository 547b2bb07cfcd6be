"""LIP baseline: lifetime- and popularity-based fake-file ranking (ref [3]).

Feng & Dai's observation: real files survive — they accumulate owners and
stay in the system — while fakes are downloaded, recognised and deleted, so
a file's *lifetime* and *popularity* (owner count) separate real from fake
without any votes.  The paper cites LIP's weakness directly: "this method
cannot identify the quality of a file accurately when its number of owners
is too small" — benchmark C3 exercises exactly that unpopular-file regime.

LIP is file-centric: it scores files, not users, so :meth:`reputation` is
identically zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from .base import ReputationMechanism

__all__ = ["LIPMechanism"]


@dataclass
class _FileState:
    first_seen: float = math.inf
    last_seen: float = -math.inf
    owners: Set[str] = field(default_factory=set)
    deletions: int = 0


class LIPMechanism(ReputationMechanism):
    """Score files by normalised lifetime x log-popularity, minus deletions.

    :attr:`HALF_OWNERS` is the owner count at which the popularity term
    reaches 0.5; ``lifetime_scale_seconds`` sets the lifetime term's scale.
    """

    name = "lip"

    HALF_OWNERS = 8

    def __init__(self, lifetime_scale_seconds: float = 10 * 24 * 3600.0):
        if lifetime_scale_seconds <= 0:
            raise ValueError("lifetime_scale_seconds must be positive")
        self._lifetime_scale = lifetime_scale_seconds
        self._files: Dict[str, _FileState] = {}

    # ------------------------------------------------------------------ #
    # Signals                                                            #
    # ------------------------------------------------------------------ #

    def record_download(self, downloader: str, uploader: str, file_id: str,
                        size_bytes: float, timestamp: float = 0.0) -> None:
        state = self._files.setdefault(file_id, _FileState())
        state.first_seen = min(state.first_seen, timestamp)
        state.last_seen = max(state.last_seen, timestamp)
        state.owners.add(downloader)
        state.owners.add(uploader)

    def record_deletion(self, user: str, file_id: str,
                        timestamp: float = 0.0) -> None:
        state = self._files.setdefault(file_id, _FileState())
        state.deletions += 1
        state.owners.discard(user)
        state.last_seen = max(state.last_seen, timestamp)

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    def reputation(self, observer: str, target: str) -> float:
        return 0.0

    def file_score(self, observer: str, file_id: str) -> Optional[float]:
        state = self._files.get(file_id)
        if state is None or not math.isfinite(state.first_seen):
            return None
        lifetime = max(state.last_seen - state.first_seen, 0.0)
        lifetime_term = 1.0 - math.exp(-lifetime / self._lifetime_scale)
        owner_count = len(state.owners)
        popularity_term = owner_count / (owner_count + self.HALF_OWNERS)
        # Deletions are the negative signal: each deletion relative to the
        # surviving owner population pushes the score down.
        total_holders = owner_count + state.deletions
        deletion_penalty = (state.deletions / total_holders
                            if total_holders else 0.0)
        raw = 0.5 * lifetime_term + 0.5 * popularity_term
        return max(raw * (1.0 - deletion_penalty), 0.0)

    def owner_count(self, file_id: str) -> int:
        state = self._files.get(file_id)
        return len(state.owners) if state else 0
