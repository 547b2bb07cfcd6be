"""The multi-dimensional reputation system façade.

:class:`MultiDimensionalReputationSystem` is the paper's contribution as a
single object.  It ingests the raw behavioural events of a P2P file-sharing
system —

* downloads (who got which file, what size, from whom),
* file retention updates and explicit votes,
* user ranks, friendships and blacklistings,
* fake-file deletions,

— maintains the evaluation / download / user-trust stores, and answers the
three questions the paper's mechanisms need:

1. *user reputation* (Eqs. 2-8): pairwise ``RM_ij`` and a global projection;
2. *file reputation* (Eq. 9): is this file fake?
3. *service level* (Section 3.4): what queue offset and bandwidth does this
   requester deserve?

Matrix construction is owned by the :class:`~repro.core.pipeline.TrustPipeline`:
stores accumulate per-entity dirty sets, and a refresh re-derives only the
rows those deltas touch, bit-identical to a full rebuild.  The façade keeps
only the refresh policy: with ``auto_refresh`` a query refreshes whenever
the stores hold deltas (always-fresh queries); simulations set it to False
and call :meth:`recompute` at their maintenance cadence instead.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from ..obs.recorder import NULL_RECORDER, NullRecorder
from .config import DEFAULT_CONFIG, ReputationConfig
from .evaluation import EvaluationStore
from .file_reputation import FileJudgement, judge_file
from .incentive import (ActionCreditTracker, IncentiveAction,
                        ServiceDifferentiator, ServiceLevel,
                        reference_reputation)
from .journal_table import JOURNAL_RECORDS, check_record, journal_fields
from .matrix import TrustMatrix
from .multitrust import global_reputation_vector
from .pipeline import RefreshView, TrustPipeline
from .user_trust import UserTrustStore
from .volume_trust import DownloadLedger

__all__ = ["MultiDimensionalReputationSystem", "RefreshView"]

#: Weight of global incentive credit relative to pairwise reputation when
#: computing the effective reputation used for service differentiation.  The
#: pairwise term dominates; credit breaks ties and bootstraps newcomers who
#: behave well before anyone has downloaded from them.
CREDIT_BONUS_WEIGHT = 0.1


class MultiDimensionalReputationSystem:
    """Facade over the full trust + incentive mechanism of the paper."""

    def __init__(self, config: ReputationConfig = DEFAULT_CONFIG,
                 auto_refresh: bool = True,
                 recorder: NullRecorder = NULL_RECORDER):
        self.config = config
        self._recorder = recorder
        #: With ``auto_refresh`` a query refreshes whenever the stores hold
        #: deltas, however they were written (always-fresh queries, O(delta)
        #: per write burst).  Simulations ingesting thousands of events set
        #: it to False and call :meth:`recompute` at their maintenance
        #: cadence instead.
        self.auto_refresh = auto_refresh
        self.evaluations = EvaluationStore(config=config)
        self.ledger = DownloadLedger()
        self.user_trust = UserTrustStore()
        self.credits = ActionCreditTracker(config=config)
        #: The incremental compute path from stores to ``TM``/``RM``.
        self.pipeline = TrustPipeline(self.evaluations, self.ledger,
                                      self.user_trust, config, recorder)
        #: A refresh requested by :meth:`recompute` (or owed to the first
        #: query); deltas themselves live only in the stores' dirty sets.
        self._stale = True

    @property
    def recorder(self) -> NullRecorder:
        """Observability sink; the default NULL_RECORDER ignores everything."""
        return self._recorder

    @recorder.setter
    def recorder(self, recorder: NullRecorder) -> None:
        # Mechanisms bind a live recorder after construction; the pipeline
        # must follow or its pipeline_refresh events vanish into the null.
        self._recorder = recorder
        self.pipeline.recorder = recorder

    # ------------------------------------------------------------------ #
    # Event ingestion                                                    #
    # ------------------------------------------------------------------ #

    def recompute(self) -> None:
        """Ask the next query to refresh the matrices.

        The stores track their deltas regardless of ``auto_refresh``, so
        the refresh this triggers re-derives only what actually changed —
        with results bit-identical to a from-scratch rebuild.
        """
        self._stale = True

    def record_download(self, downloader: str, uploader: str, file_id: str,
                        size_bytes: float, timestamp: float = 0.0) -> None:
        """A completed download; feeds the volume-trust dimension (Eq. 4)."""
        self.ledger.record_download(downloader, uploader, file_id,
                                    size_bytes, timestamp)

    def record_retention(self, user_id: str, file_id: str,
                         retention_seconds: float,
                         timestamp: float = 0.0) -> None:
        """Refresh a file's implicit evaluation from its retention time."""
        self.evaluations.record_retention(user_id, file_id,
                                          retention_seconds, timestamp)

    def record_vote(self, user_id: str, file_id: str, vote: float,
                    timestamp: float = 0.0) -> None:
        """An explicit vote; also earns incentive credit (Section 3.4)."""
        self.evaluations.record_vote(user_id, file_id, vote, timestamp)
        self.credits.record(user_id, IncentiveAction.VOTE)

    def record_play(self, user_id: str, file_id: str, play_fraction: float,
                    timestamp: float = 0.0) -> None:
        """Play-time implicit evaluation for playable media (Section 1)."""
        self.evaluations.record_play(user_id, file_id, play_fraction,
                                     timestamp)

    def record_rank(self, rater: str, ratee: str, rating: float) -> None:
        """A direct user rating; earns rank credit."""
        self.user_trust.rate(rater, ratee, rating)
        self.credits.record(rater, IncentiveAction.RANK_USER)

    def add_friend(self, user: str, friend: str) -> None:
        self.user_trust.add_friend(user, friend)

    def add_to_blacklist(self, user: str, target: str) -> None:
        self.user_trust.add_to_blacklist(user, target)

    def record_real_upload(self, uploader: str, size_bytes: float = 1.0) -> None:
        """Credit an uploader for serving a file later judged real."""
        self.credits.record(uploader, IncentiveAction.UPLOAD_REAL_FILE)

    def record_fake_deletion(self, user_id: str, file_id: str,
                             timestamp: float = 0.0) -> None:
        """The user deleted a fake file: credit + implicit evaluation of 0.

        The evaluation is checked before the credit lands, so a refused
        evaluation leaves no credit behind; the records keep their order.
        """
        check_record("eval.implicit", user_id, file_id, 0.0, timestamp)
        self.credits.record(user_id, IncentiveAction.DELETE_FAKE_FILE)
        self.evaluations.record_implicit(user_id, file_id, 0.0, timestamp)

    def apply_record(self, kind: str, payload: Mapping[str, Any]) -> None:
        """Apply one journalled store mutation through the live ingest path.

        The journal table names the store and mutator that emitted the
        record; replay re-enters that exact mutator — dirty sets and all —
        so WAL replay drives the incremental pipeline identically to never
        having crashed.  A record that cannot apply raises
        :class:`ValueError` before it mutates.  Credit records do not touch
        the matrices: they mark no store dirty, so they trigger no refresh,
        mirroring the live write paths.
        """
        values = journal_fields(kind, payload)
        spec = JOURNAL_RECORDS[kind]
        getattr(getattr(self, spec.store), spec.mutator)(*values)

    def prune_before(self, cutoff_timestamp: float) -> int:
        """Section 4.3: drop evaluations and downloads older than cutoff."""
        return (self.evaluations.prune_older_than(cutoff_timestamp)
                + self.ledger.prune_older_than(cutoff_timestamp))

    # ------------------------------------------------------------------ #
    # Matrices                                                           #
    # ------------------------------------------------------------------ #

    def _ensure_fresh(self) -> None:
        if self._stale or (self.auto_refresh and self.pipeline.has_dirty):
            self.pipeline.refresh()
            self._stale = False

    def one_step_matrix(self) -> TrustMatrix:
        """The integrated one-step trust matrix ``TM`` (Eq. 7), cached."""
        self._ensure_fresh()
        return self.pipeline.trust

    def reputation_matrix(self) -> TrustMatrix:
        """The multi-trust reputation matrix ``RM = TM^n`` (Eq. 8), cached."""
        self._ensure_fresh()
        return self.pipeline.reputation

    def refresh_view(self) -> RefreshView:
        """Zero-copy view of the current ``TM``/``RM`` pair.

        Both matrices come from the pipeline (refreshing them if stale),
        so taking a view at every maintenance tick costs nothing beyond
        the refresh the tick performs anyway.
        """
        self._ensure_fresh()
        return self.pipeline.view()

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    def user_reputation(self, observer: str, target: str) -> float:
        """Pairwise reputation ``RM_observer,target``."""
        return self.reputation_matrix().get(observer, target)

    def effective_reputation(self, observer: str, target: str) -> float:
        """Pairwise reputation plus a small global incentive-credit bonus.

        The bonus bootstraps well-behaved newcomers: voting/ranking/cleanup
        earn service priority even before a trust path exists.
        """
        reputation = self.reputation_matrix()
        return self._effective_reputation(
            reputation, observer, target, self.credits.max_credit(),
            reference_reputation(reputation, observer))

    def best_effective_reputation(self, observer: str,
                                  targets: Iterable[str]) -> float:
        """The largest :meth:`effective_reputation` ``observer`` assigns any
        of ``targets`` other than itself, or 0.0 when there are none.

        RM, the credit maximum and the observer's reference are read once
        per call, not per target.  Nothing is kept across calls: credit
        balances move on every vote, rank, upload and deletion, without a
        refresh, so a cache keyed on the trust view would go stale.
        """
        reputation = self.reputation_matrix()
        max_credit = self.credits.max_credit()
        reference = reference_reputation(reputation, observer)
        return max((self._effective_reputation(reputation, observer, target,
                                               max_credit, reference)
                    for target in targets if target != observer),
                   default=0.0)

    def global_reputation(self) -> Dict[str, float]:
        """Column-mean projection of RM (for baseline comparisons)."""
        return global_reputation_vector(self.reputation_matrix())

    def judge_file(self, observer: str, file_id: str,
                   threshold: Optional[float] = None,
                   accept_when_blind: bool = True) -> FileJudgement:
        """Eq. 9 + threshold: should ``observer`` download ``file_id``?"""
        return judge_file(self.reputation_matrix(), self.evaluations,
                          observer, file_id, threshold, self.config,
                          accept_when_blind)

    def _effective_reputation(self, reputation: TrustMatrix, observer: str,
                              target: str, max_credit: float,
                              reference: float) -> float:
        """Shared Eq. + credit-bonus arithmetic over hoisted per-queue state.

        ``max_credit`` and ``reference`` depend only on the system / the
        observer, so queue ordering computes them once instead of per
        requester.
        """
        pairwise = reputation.get(observer, target)
        if max_credit <= 0:
            return pairwise
        bonus = self.credits.credit(target) / max_credit
        return pairwise + CREDIT_BONUS_WEIGHT * bonus * reference

    def service_level(self, observer: str, requester: str) -> ServiceLevel:
        """Section 3.4: the service ``observer`` should grant ``requester``."""
        reputation = self.reputation_matrix()
        reference = reference_reputation(reputation, observer)
        differentiator = ServiceDifferentiator(
            self.config, reference_reputation=max(reference, 1e-12))
        return differentiator.service_level(
            requester, self._effective_reputation(
                reputation, observer, requester, self.credits.max_credit(),
                reference))

    def order_request_queue(self, observer: str,
                            requests: Sequence[Tuple[str, float]]
                            ) -> List[Tuple[str, float]]:
        """Order ``(requester, arrival_time)`` pairs by effective time.

        High-reputation requesters receive a negative offset and move ahead;
        ties (including all-zero reputations) preserve arrival order.  The
        differentiator, credit maximum and observer reference are computed
        once for the whole queue, not per requester.
        """
        reputation = self.reputation_matrix()
        reference = reference_reputation(reputation, observer)
        differentiator = ServiceDifferentiator(
            self.config, reference_reputation=max(reference, 1e-12))
        max_credit = self.credits.max_credit()
        annotated = [
            (requester, arrival,
             self._effective_reputation(reputation, observer, requester,
                                        max_credit, reference))
            for requester, arrival in requests
        ]
        return differentiator.order_queue(annotated)
