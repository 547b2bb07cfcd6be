"""Adapter: the paper's system behind the common mechanism interface.

Wraps :class:`repro.core.MultiDimensionalReputationSystem` so the simulator
and benchmarks can drive it interchangeably with the baselines.  All signals
map one-to-one onto the façade; ``file_score`` is Eq. 9's file reputation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..core.config import DEFAULT_CONFIG, ReputationConfig
from ..core.reputation_system import MultiDimensionalReputationSystem
from ..obs.recorder import NullRecorder
from .base import ReputationMechanism

__all__ = ["MultiDimensionalMechanism"]


class MultiDimensionalMechanism(ReputationMechanism):
    """The paper's multi-dimensional reputation system as a mechanism."""

    name = "multidimensional"

    def __init__(self, config: ReputationConfig = DEFAULT_CONFIG,
                 auto_refresh: bool = False):
        # Simulation-friendly default: matrices are rebuilt at refresh()
        # (the simulator's maintenance tick), not on every ingested event.
        self.system = MultiDimensionalReputationSystem(
            config, auto_refresh=auto_refresh)

    def bind_recorder(self, recorder: NullRecorder) -> None:
        """Propagate the recorder into the wrapped reputation system so the
        multitrust power iteration reports per-step residuals."""
        self.recorder = recorder
        self.system.recorder = recorder

    # ------------------------------------------------------------------ #
    # Signals                                                            #
    # ------------------------------------------------------------------ #

    def record_download(self, downloader: str, uploader: str, file_id: str,
                        size_bytes: float, timestamp: float = 0.0) -> None:
        self.system.record_download(downloader, uploader, file_id,
                                    size_bytes, timestamp)

    def record_vote(self, voter: str, file_id: str, vote: float,
                    timestamp: float = 0.0) -> None:
        self.system.record_vote(voter, file_id, vote, timestamp)

    def record_retention(self, user: str, file_id: str,
                         retention_seconds: float,
                         timestamp: float = 0.0) -> None:
        self.system.record_retention(user, file_id, retention_seconds,
                                     timestamp)

    def record_rank(self, rater: str, ratee: str, rating: float) -> None:
        self.system.record_rank(rater, ratee, rating)

    def record_blacklist(self, user: str, target: str) -> None:
        self.system.add_to_blacklist(user, target)

    def record_deletion(self, user: str, file_id: str,
                        timestamp: float = 0.0) -> None:
        self.system.record_fake_deletion(user, file_id, timestamp)

    def record_upload_outcome(self, uploader: str, positive: bool,
                              timestamp: float = 0.0) -> None:
        if positive:
            self.system.record_real_upload(uploader)

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    def refresh(self) -> None:
        with self.recorder.span("mechanism.refresh"):
            self.system.recompute()
            # Drives the incremental pipeline: only rows touched by deltas
            # since the previous tick are re-derived (pipeline_refresh
            # events carry the per-stage dirty counts).
            self.system.refresh_view()
        self.recorder.inc("mechanism.refreshes")

    def reputation(self, observer: str, target: str) -> float:
        return self.system.effective_reputation(observer, target)

    def best_reputation(self, observer: str, targets: Iterable[str]) -> float:
        return self.system.best_effective_reputation(observer, targets)

    def is_distrusted(self, observer: str, target: str) -> bool:
        return self.system.user_trust.is_blacklisted(observer, target)

    def file_score(self, observer: str, file_id: str) -> Optional[float]:
        judgement = self.system.judge_file(observer, file_id)
        return judgement.reputation

    def global_scores(self) -> Dict[str, float]:
        return self.system.global_reputation()

    def trust_edges(self, per_row: int = 6) -> List[Tuple[str, str, float]]:
        """Strongest one-step ``TM`` edges via the zero-copy refresh view."""
        return list(self.system.refresh_view().top_trust_edges(per_row))
