"""Common interface for all reputation mechanisms.

Both the paper's system and every baseline (Tit-for-Tat, EigenTrust, Lian's
hybrid multi-trust, LIP, Credence, null) are driven through this interface so
the simulator and benchmarks can swap mechanisms without code changes.

A mechanism consumes behavioural *signals* (downloads, votes, retention
updates, user ranks) — each implementation simply ignores the signals it has
no use for — and answers two queries:

* :meth:`reputation` — how much does ``observer`` trust ``target``?  Used
  for peer selection and service differentiation.  Scale is
  mechanism-specific; only within-observer comparisons are meaningful.
* :meth:`file_score` — the mechanism's estimate (in [0, 1]) that a file is
  real, or ``None`` when it has no evidence.  Used for fake-file filtering.

``refresh`` gives batch mechanisms (matrix powers, eigenvector iterations) a
single point to recompute; it may be a no-op for purely incremental ones.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional, Tuple

from ..obs.recorder import NULL_RECORDER, NullRecorder

__all__ = ["ReputationMechanism"]


class ReputationMechanism(abc.ABC):
    """Abstract base for reputation mechanisms (see module docstring)."""

    #: Human-readable mechanism name used in benchmark tables.
    name: str = "abstract"

    #: Observability sink; the default NULL_RECORDER ignores everything.
    recorder: NullRecorder = NULL_RECORDER

    def bind_recorder(self, recorder: NullRecorder) -> None:
        """Attach an observability recorder (the simulator does this so
        batch recomputations can report convergence residuals and timings).
        Mechanisms with deeper machinery override to propagate it."""
        self.recorder = recorder

    # ------------------------------------------------------------------ #
    # Signals (default: ignore)                                          #
    # ------------------------------------------------------------------ #

    def record_download(self, downloader: str, uploader: str, file_id: str,
                        size_bytes: float, timestamp: float = 0.0) -> None:
        """A transfer completed (validity unknown at this point)."""

    def record_vote(self, voter: str, file_id: str, vote: float,
                    timestamp: float = 0.0) -> None:
        """An explicit vote in [0, 1] on a file."""

    def record_retention(self, user: str, file_id: str,
                         retention_seconds: float,
                         timestamp: float = 0.0) -> None:
        """Refresh of how long ``user`` has kept ``file_id``."""

    def record_rank(self, rater: str, ratee: str, rating: float) -> None:
        """A direct user-to-user rating in [0, 1]."""

    def record_blacklist(self, user: str, target: str) -> None:
        """``user`` blacklisted ``target``; defaults to a zero rating."""
        self.record_rank(user, target, 0.0)

    def record_deletion(self, user: str, file_id: str,
                        timestamp: float = 0.0) -> None:
        """``user`` deleted ``file_id`` (strong negative implicit signal)."""

    def record_upload_outcome(self, uploader: str, positive: bool,
                              timestamp: float = 0.0) -> None:
        """An upload was later judged good (positive) or fake by its receiver.

        This is the incentive hook of Section 3.4 ("uploading real files ...
        can increase a user's reputation"); most baselines ignore it.
        """

    # ------------------------------------------------------------------ #
    # Membership                                                         #
    # ------------------------------------------------------------------ #

    def on_peer_online(self, user: str, timestamp: float = 0.0) -> None:
        """``user`` came online (joined/rejoined).  Default: ignore."""

    def on_peer_offline(self, user: str, timestamp: float = 0.0) -> None:
        """``user`` went offline.  Default: ignore."""

    # ------------------------------------------------------------------ #
    # Maintenance                                                        #
    # ------------------------------------------------------------------ #

    def refresh(self) -> None:
        """Recompute any batch state (matrices, eigenvectors).  Optional."""

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def reputation(self, observer: str, target: str) -> float:
        """Trust of ``observer`` in ``target`` (mechanism-specific scale)."""

    def best_reputation(self, observer: str, targets: Iterable[str]) -> float:
        """The largest :meth:`reputation` ``observer`` assigns any of
        ``targets`` other than itself, or 0.0 when there are none.

        Service differentiation scales every requester against this on each
        request.  Mechanisms whose per-observer state is costly to look up
        override it to read that state once per call; the result must equal
        this generic scan bit for bit.
        """
        return max((self.reputation(observer, target) for target in targets
                    if target != observer), default=0.0)

    def is_distrusted(self, observer: str, target: str) -> bool:
        """True when the observer *explicitly* distrusts the target.

        Distinguishes "reputation zero because unknown" (newcomers deserve
        neutral treatment) from "reputation zero because blacklisted" (the
        paper: blacklisted users "should be assigned with zero").  Default:
        nobody is explicitly distrusted.
        """
        return False

    def file_score(self, observer: str, file_id: str) -> Optional[float]:
        """Estimated probability the file is real, or None if unknown."""
        return None

    def global_scores(self) -> Dict[str, float]:
        """Per-user global reputation where the mechanism defines one.

        Pairwise-only mechanisms return an empty dict.
        """
        return {}

    def trust_edges(self, per_row: int = 6) -> List[Tuple[str, str, float]]:
        """Strongest one-step trust edges ``(truster, trustee, value)``.

        The monitoring layer samples these at each refresh to feed the
        collusion-ring detector; mechanisms without an explicit trust
        matrix return an empty list (the default).  Implementations must
        be deterministic (sorted trusters, ties broken by trustee id).
        """
        return []
