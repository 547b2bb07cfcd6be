"""Credence baseline: vote correlation for object reputation (ref [5]).

Walsh & Sirer's Credence weighs another peer's votes by the *correlation*
between that peer's voting history and one's own: peers who voted like me in
the past predict my opinion of new files.  This is the closest prior work to
the paper's file-based trust dimension, but it is vote-only — it cannot use
retention time, download volume or user ranks, so it shares the sparse-vote
problem ("less than 1% of the popular files on KaZaA are voted on").

Implementation: the standard Credence pairwise correlation coefficient over
binary votes (vote >= 0.5 counts as positive), and a file score that is the
correlation-weighted average of others' votes.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from .base import ReputationMechanism

__all__ = ["CredenceMechanism"]


class CredenceMechanism(ReputationMechanism):
    """Vote-correlation object reputation."""

    name = "credence"

    #: Files two users must both have voted on before they correlate.
    MIN_OVERLAP = 2

    def __init__(self) -> None:
        # user -> file -> binary vote (True = positive).
        self._votes: Dict[str, Dict[str, bool]] = {}

    # ------------------------------------------------------------------ #
    # Signals                                                            #
    # ------------------------------------------------------------------ #

    def record_vote(self, voter: str, file_id: str, vote: float,
                    timestamp: float = 0.0) -> None:
        self._votes.setdefault(voter, {})[file_id] = vote >= 0.5

    # ------------------------------------------------------------------ #
    # Correlation                                                        #
    # ------------------------------------------------------------------ #

    def correlation(self, user_a: str, user_b: str) -> Optional[float]:
        """Phi coefficient between two users' overlapping binary votes.

        Returns None when the overlap is below :attr:`MIN_OVERLAP`; returns a
        value in [-1, 1] otherwise (degenerate all-same-vote overlaps count
        as perfect agreement/disagreement by convention).
        """
        votes_a = self._votes.get(user_a, {})
        votes_b = self._votes.get(user_b, {})
        if len(votes_a) > len(votes_b):
            votes_a, votes_b = votes_b, votes_a
        shared = [file_id for file_id in votes_a if file_id in votes_b]
        if len(shared) < self.MIN_OVERLAP:
            return None
        both_pos = sum(1 for f in shared
                       if self._votes[user_a].get(f) and self._votes[user_b].get(f))
        both_neg = sum(1 for f in shared
                       if not self._votes[user_a].get(f) and not self._votes[user_b].get(f))
        only_a = sum(1 for f in shared
                     if self._votes[user_a].get(f) and not self._votes[user_b].get(f))
        only_b = len(shared) - both_pos - both_neg - only_a
        denominator = math.sqrt(float((both_pos + only_a) * (both_neg + only_b)
                                      * (both_pos + only_b) * (both_neg + only_a)))
        if denominator == 0.0:
            agreement = (both_pos + both_neg) / len(shared)
            return 2.0 * agreement - 1.0
        return (both_pos * both_neg - only_a * only_b) / denominator

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    def reputation(self, observer: str, target: str) -> float:
        """Positive vote correlation (negative/unknown correlations -> 0)."""
        value = self.correlation(observer, target)
        if value is None or value <= 0:
            return 0.0
        return value

    def file_score(self, observer: str, file_id: str) -> Optional[float]:
        """Correlation-weighted average of other users' votes on the file."""
        numerator = denominator = 0.0
        for voter, votes in self._votes.items():
            if voter == observer or file_id not in votes:
                continue
            weight = self.reputation(observer, voter)
            if weight > 0:
                numerator += weight * (1.0 if votes[file_id] else 0.0)
                denominator += weight
        if denominator == 0.0:
            return None
        return numerator / denominator

    def vote_count(self, user: str) -> int:
        return len(self._votes.get(user, {}))
