"""Trust-based incentive mechanism (Section 3.4): service differentiation.

The reputation system rewards high-reputation users and throttles
low-reputation ones:

* **Queue offset** — "These users add to their request time a negative
  offset whose magnitude grows with their reputation": a requester's
  effective arrival time is ``arrival - offset(reputation)``, moving them
  forward in the upload queue.
* **Bandwidth quota** — "a bandwidth quota is applied to downloads of users
  with lower reputations": allocated bandwidth interpolates between the
  configured floor and ceiling with reputation.

Unlike pure trust systems, *every* pro-social act raises reputation here:
uploading real files, voting on files, ranking other users honestly and
deleting fake files quickly.  :class:`ActionCreditTracker` accounts those
credits; the simulator folds them into the user-trust dimension, closing the
incentive loop (more participation -> denser one-step matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .config import DEFAULT_CONFIG, ReputationConfig
from .journal_table import JournalSink, check_record
from .matrix import TrustMatrix

__all__ = ["ServiceDifferentiator", "ServiceLevel", "IncentiveAction",
           "ActionCreditTracker", "reference_reputation"]


def reference_reputation(reputation: TrustMatrix, observer: str) -> float:
    """The observer's reputation scale: their largest RM row entry, or 1.0.

    Pairwise multi-trust values are tiny, so service differentiation
    measures a requester against what the observer grants their most
    trusted peer (see :class:`ServiceDifferentiator`).  The array form
    keeps every row's maximum, so no row is walked here.
    """
    peak = reputation.row_max(observer)
    return peak if peak > 0.0 else 1.0


@dataclass(frozen=True)
class ServiceLevel:
    """The concrete service a requester receives from an uploader."""

    requester: str
    reputation: float
    #: Seconds subtracted from the request's arrival time in the queue.
    queue_offset_seconds: float
    #: Bytes per second this requester may consume.
    bandwidth_quota: float


class ServiceDifferentiator:
    """Maps a (normalised) reputation to queue priority and bandwidth.

    ``reference_reputation`` calibrates the scale: a requester at or above it
    gets the full offset and quota.  Pairwise multi-trust values are tiny
    (rows are ~stochastic over many peers), so callers should pass e.g. the
    observer's maximum row entry or a population quantile as the reference.
    """

    def __init__(self, config: ReputationConfig = DEFAULT_CONFIG,
                 reference_reputation: float = 1.0):
        if reference_reputation <= 0:
            raise ValueError("reference_reputation must be positive")
        self._config = config
        self._reference = reference_reputation

    def normalize(self, reputation: float) -> float:
        """Clamp reputation to [0, 1] relative to the reference value."""
        if reputation <= 0:
            return 0.0
        return min(reputation / self._reference, 1.0)

    def queue_offset(self, reputation: float) -> float:
        """Negative queue offset (seconds) growing with reputation."""
        return self.normalize(reputation) * self._config.max_queue_offset_seconds

    def bandwidth_quota(self, reputation: float) -> float:
        """Allocated bandwidth interpolating floor..ceiling with reputation."""
        config = self._config
        span = config.max_bandwidth_quota - config.min_bandwidth_quota
        return config.min_bandwidth_quota + self.normalize(reputation) * span

    def service_level(self, requester: str, reputation: float) -> ServiceLevel:
        return ServiceLevel(
            requester=requester,
            reputation=reputation,
            queue_offset_seconds=self.queue_offset(reputation),
            bandwidth_quota=self.bandwidth_quota(reputation),
        )

    def order_queue(self, requests: Sequence[Tuple[str, float, float]]
                    ) -> List[Tuple[str, float]]:
        """Order pending requests by effective (offset-adjusted) arrival time.

        ``requests`` is a sequence of ``(requester, arrival_time,
        reputation)``; the result is ``(requester, effective_time)`` sorted
        ascending — the uploader should serve it front to back.
        """
        effective = [
            (requester, arrival - self.queue_offset(reputation))
            for requester, arrival, reputation in requests
        ]
        return sorted(effective, key=lambda item: (item[1], item[0]))


class IncentiveAction(Enum):
    """Pro-social actions that earn reputation credit (Section 3.4)."""

    UPLOAD_REAL_FILE = "upload_real_file"
    VOTE = "vote"
    RANK_USER = "rank_user"
    DELETE_FAKE_FILE = "delete_fake_file"


@dataclass
class ActionCreditTracker:
    """Accumulates per-user incentive credit for pro-social actions.

    Credits are *behavioural* reputation inputs — they do not overwrite the
    trust matrices but feed the user-trust dimension (a well-behaved user
    becomes rateable even before anyone downloads from him), and give the
    simulator an auditable ledger of who earned what and why.
    """

    config: ReputationConfig = field(default=DEFAULT_CONFIG)
    _credits: Dict[str, float] = field(default_factory=dict)
    _counts: Dict[Tuple[str, IncentiveAction], int] = field(default_factory=dict)
    #: The largest balance (0.0 with none).  A balance only grows, since
    #: credits and magnitudes are >= 0, so each new one can only raise it.
    _largest: float = field(default=0.0, repr=False, compare=False)
    #: Write-ahead hook (see :mod:`~repro.core.journal_table`):
    #: :meth:`record` hands it its record before the balance moves; the
    #: default only checks it.
    journal: JournalSink = field(default=check_record, repr=False,
                                 compare=False)

    def record(self, user_id: str, action: Union[IncentiveAction, str],
               magnitude: float = 1.0) -> float:
        """Credit ``user_id`` for one ``action`` (a member or its value);
        returns the new balance."""
        action = IncentiveAction(action)
        if magnitude < 0:
            raise ValueError(f"magnitude must be >= 0, got {magnitude}")
        self.journal("credit.record", user_id, action.value, magnitude)
        credit = magnitude * {
            IncentiveAction.UPLOAD_REAL_FILE: self.config.upload_credit,
            IncentiveAction.VOTE: self.config.vote_credit,
            IncentiveAction.RANK_USER: self.config.rank_credit,
            IncentiveAction.DELETE_FAKE_FILE: self.config.delete_fake_credit,
        }[action]
        balance = self._credits.get(user_id, 0.0) + credit
        self._credits[user_id] = balance
        if balance > self._largest:
            self._largest = balance
        key = (user_id, action)
        self._counts[key] = self._counts.get(key, 0) + 1
        return balance

    def credit(self, user_id: str) -> float:
        return self._credits.get(user_id, 0.0)

    def action_count(self, user_id: str, action: IncentiveAction) -> int:
        return self._counts.get((user_id, action), 0)

    def balances(self) -> Dict[str, float]:
        return dict(self._credits)

    def max_credit(self) -> float:
        """The largest balance, 0.0 when nobody has one."""
        return self._largest

    def restore_balances(self, balances: Mapping[str, float]) -> None:
        """Set the balances a saved state holds (the snapshot loader)."""
        self._credits.update(balances)
        self._largest = max(self._credits.values(), default=0.0)

    def top_users(self, k: int = 10) -> List[Tuple[str, float]]:
        """The ``k`` users with the highest credit, descending."""
        ranked = sorted(self._credits.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]
