"""EigenTrust baseline (Kamvar, Schlosser, Garcia-Molina — WWW 2003).

EigenTrust assigns each peer a single *global* trust value: the stationary
distribution of a random walk over the normalised local-trust matrix —
"the page link in the PageRank algorithm becomes traffic flow in EigenTrust"
(Section 2).  The canonical algorithm:

1. Local trust ``s_ij`` = satisfactory minus unsatisfactory transactions
   with ``j`` (clamped at 0); here satisfaction is the downloader's
   evaluation of the received file.
2. Normalise: ``c_ij = max(s_ij, 0) / sum_j max(s_ij, 0)``.
3. Power iteration with damping::

       t <- (1 - a) * C^T t + a * p

   where ``p`` is the pre-trusted distribution and ``a`` the damping
   weight.  No peer is pre-trusted here, so ``p`` is uniform over all
   peers.

Benchmark C2 reproduces the paper's critique: EigenTrust produces *false
negatives* (honest peers with little traffic get ~zero trust) and *false
positives* (colluders inflate each other above honest peers).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

import numpy as np

from .base import ReputationMechanism

__all__ = ["EigenTrustMechanism"]


class EigenTrustMechanism(ReputationMechanism):
    """Full EigenTrust with damping and power iteration."""

    name = "eigentrust"

    #: The power iteration stops after this many steps, or earlier once
    #: one step moves the trust vector by less than ``TOLERANCE`` (L1).
    MAX_ITERATIONS = 100
    TOLERANCE = 1e-10

    def __init__(self, damping: float = 0.15, auto_refresh: bool = True):
        if not 0.0 <= damping <= 1.0:
            raise ValueError(f"damping must be in [0,1], got {damping}")
        self._damping = damping
        # s_ij accumulators: (i, j) -> satisfaction sum.
        self._local: Dict[Tuple[str, str], float] = {}
        self._pending: Dict[Tuple[str, str, str], float] = {}
        self._users: Set[str] = set()
        self._scores: Dict[str, float] = {}
        self._iterations_used = 0
        self._auto_refresh = auto_refresh
        self._dirty = True

    # ------------------------------------------------------------------ #
    # Signals                                                            #
    # ------------------------------------------------------------------ #

    def record_download(self, downloader: str, uploader: str, file_id: str,
                        size_bytes: float, timestamp: float = 0.0) -> None:
        """A transfer happened; satisfaction arrives with the later vote.

        Until the downloader evaluates the file the transaction is *pending*
        and contributes a mildly positive default (an un-evaluated download
        is weak evidence of service).
        """
        self._users.update((downloader, uploader))
        self._pending[(downloader, uploader, file_id)] = 0.5
        self._dirty = True

    def record_vote(self, voter: str, file_id: str, vote: float,
                    timestamp: float = 0.0) -> None:
        """Resolve any pending transaction on this file into +/- satisfaction.

        EigenTrust's ``sat/unsat`` maps from the vote: >= 0.5 counts as a
        satisfactory transaction (+1), below as unsatisfactory (-1).
        """
        resolved = [key for key in self._pending
                    if key[0] == voter and key[2] == file_id]
        for key in resolved:
            self._pending.pop(key)
            _, uploader, _ = key
            delta = 1.0 if vote >= 0.5 else -1.0
            pair = (voter, uploader)
            self._local[pair] = self._local.get(pair, 0.0) + delta
            self._dirty = True

    def record_retention(self, user: str, file_id: str,
                         retention_seconds: float,
                         timestamp: float = 0.0) -> None:
        """Ignored: canonical EigenTrust uses transaction ratings only."""

    # ------------------------------------------------------------------ #
    # Computation                                                        #
    # ------------------------------------------------------------------ #

    def refresh(self) -> None:
        """Run the power iteration to a fixed point."""
        users = sorted(self._users)
        if not users:
            self._scores = {}
            self._dirty = False
            return
        index = {user: position for position, user in enumerate(users)}
        n = len(users)

        # Normalised local trust C (row-stochastic over positive entries).
        c = np.zeros((n, n))
        for (i, j), value in self._local.items():
            if value > 0 and i in index and j in index:
                c[index[i], index[j]] = value
        # Pending (unevaluated) transactions contribute weak evidence.
        for (i, j, _), value in self._pending.items():
            if i in index and j in index:
                c[index[i], index[j]] += value
        row_sums = c.sum(axis=1)

        pre = np.full(n, 1.0 / n)

        # Rows with no positive local trust defer to the uniform vector
        # (the standard EigenTrust fix for dangling rows).
        for row in range(n):
            if row_sums[row] > 0:
                c[row] /= row_sums[row]
            else:
                c[row] = pre

        t = pre.copy()
        a = self._damping
        iterations_used = 0
        for iteration in range(1, self.MAX_ITERATIONS + 1):
            t_next = (1.0 - a) * (c.T @ t) + a * pre
            delta = float(np.abs(t_next - t).sum())
            t = t_next
            iterations_used = iteration
            if delta < self.TOLERANCE:
                break
        self._iterations_used = iterations_used
        self._scores = {user: float(t[index[user]]) for user in users}
        self._dirty = False

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    def reputation(self, observer: str, target: str) -> float:
        """EigenTrust is global: the observer is irrelevant."""
        if self._dirty and self._auto_refresh:
            self.refresh()
        return self._scores.get(target, 0.0)

    def global_scores(self) -> Dict[str, float]:
        if self._dirty and self._auto_refresh:
            self.refresh()
        return dict(self._scores)

    @property
    def iterations_used(self) -> int:
        return self._iterations_used
