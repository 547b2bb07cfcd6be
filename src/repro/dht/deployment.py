"""DHT-backed deployment of the reputation mechanism.

The paper's future work: "deploy this framework in a real system".
:class:`DHTBackedMechanism` is that deployment inside the simulator: it
behaves like :class:`~repro.baselines.multidimensional.MultiDimensionalMechanism`
for trust computation (each user's trust state is local knowledge, exactly
as Section 4 step 4 prescribes), but every *evaluation* flows through a
live :class:`~repro.dht.overlay_service.EvaluationOverlay`:

* votes and retention-derived implicit evaluations are **published** to the
  file's index peers, signed (steps 1-2);
* file judgements (Eq. 9) use only the evaluations actually **retrievable**
  from the DHT at that moment (step 3+5) — TTL expiry and node churn
  degrade what a requester can see, which is precisely the deployment
  effect worth measuring;
* ``refresh()`` doubles as the republication tick (step 2) and recomputes
  the trust matrices.

The overlay's :class:`~repro.dht.messages.MessageTally` keeps the full
message bill of the deployment.
"""

from __future__ import annotations

from typing import Optional, Set

from ..baselines.multidimensional import MultiDimensionalMechanism
from ..core.config import DEFAULT_CONFIG, ReputationConfig
from ..core.file_reputation import file_reputation
from .crypto import KeyAuthority
from .faults import FaultPlan
from .overlay_service import EvaluationOverlay
from .ring import DHTNetwork
from .storage import DEFAULT_TTL_SECONDS

__all__ = ["DHTBackedMechanism"]


class DHTBackedMechanism(MultiDimensionalMechanism):
    """The paper's system with evaluations stored and fetched over a DHT."""

    name = "multidimensional-dht"

    def __init__(self, config: ReputationConfig = DEFAULT_CONFIG,
                 overlay: Optional[EvaluationOverlay] = None,
                 replication: int = 2,
                 record_ttl: float = DEFAULT_TTL_SECONDS,
                 faults: Optional[FaultPlan] = None):
        super().__init__(config)
        self.overlay = overlay if overlay is not None else EvaluationOverlay(
            DHTNetwork(), KeyAuthority(), config=config,
            replication=replication, record_ttl=record_ttl,
            faults=faults)
        self._known_users: Set[str] = set()
        self._now = 0.0

    # ------------------------------------------------------------------ #
    # Membership                                                         #
    # ------------------------------------------------------------------ #

    def _ensure_user(self, user_id: str) -> None:
        if user_id not in self._known_users:
            self.overlay.register_user(user_id)
            self._known_users.add(user_id)

    def _touch(self, timestamp: float) -> None:
        self._now = max(self._now, timestamp)

    def on_peer_online(self, user: str, timestamp: float = 0.0) -> None:
        """(Re)join the ring and immediately republish own records.

        Re-publication on rejoin is the paper's §4.3 availability technique
        ("a user will publish index information to multi-users regularly"):
        whatever the node's death took down comes back with the user.
        """
        self._touch(timestamp)
        self.overlay.register_user(user)
        self._known_users.add(user)
        self.overlay.republish_all(user, timestamp)

    def on_peer_offline(self, user: str, timestamp: float = 0.0) -> None:
        """Abrupt departure: the DHT node fails, its stored records die."""
        self._touch(timestamp)
        if self.overlay.network.has_node(user):
            self.overlay.network.fail(user)
        self._known_users.discard(user)

    # ------------------------------------------------------------------ #
    # Signals: forward to the facade AND the overlay                     #
    # ------------------------------------------------------------------ #

    def record_download(self, downloader: str, uploader: str, file_id: str,
                        size_bytes: float, timestamp: float = 0.0) -> None:
        self._ensure_user(downloader)
        self._ensure_user(uploader)
        self._touch(timestamp)
        super().record_download(downloader, uploader, file_id, size_bytes,
                                timestamp)
        # Step 1 (index half): the new holder announces holdership.
        self.overlay.publish_index_only(downloader, file_id, timestamp,
                                        size_bytes=size_bytes)

    def record_vote(self, voter: str, file_id: str, vote: float,
                    timestamp: float = 0.0) -> None:
        self._ensure_user(voter)
        self._touch(timestamp)
        super().record_vote(voter, file_id, vote, timestamp)
        self._publish_current_evaluation(voter, file_id, timestamp)

    def record_retention(self, user: str, file_id: str,
                         retention_seconds: float,
                         timestamp: float = 0.0) -> None:
        self._ensure_user(user)
        self._touch(timestamp)
        super().record_retention(user, file_id, retention_seconds, timestamp)
        self._publish_current_evaluation(user, file_id, timestamp)

    def record_deletion(self, user: str, file_id: str,
                        timestamp: float = 0.0) -> None:
        self._ensure_user(user)
        self._touch(timestamp)
        super().record_deletion(user, file_id, timestamp)
        self._publish_current_evaluation(user, file_id, timestamp)

    def _publish_current_evaluation(self, user_id: str, file_id: str,
                                    timestamp: float) -> None:
        """Publish the user's Eq. 1 evaluation of the file (steps 1-2)."""
        value = self.system.evaluations.value(user_id, file_id)
        if value is not None:
            self.overlay.publish(user_id, file_id,
                                 min(max(value, 0.0), 1.0), timestamp)

    # ------------------------------------------------------------------ #
    # Maintenance                                                        #
    # ------------------------------------------------------------------ #

    def refresh(self) -> None:
        """Republication tick + trust-matrix recomputation.

        Under fault injection the tick also runs the replica-repair sweep:
        writes lost to drops and records lost to crashes get re-replicated.
        The sweep is skipped on the fault-free path so seed runs stay
        byte-identical.
        """
        for user_id in sorted(self._known_users):
            self.overlay.republish_all(user_id, self._now)
        self.overlay.expire_all(self._now)
        faults = self.overlay.faults
        if faults is not None and faults.active:
            self.overlay.repair_replicas(self._now)
        super().refresh()

    @property
    def availability(self) -> float:
        """Fraction of DHT retrievals that met their read quorum."""
        return self.overlay.availability

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    def file_score(self, observer: str, file_id: str) -> Optional[float]:
        """Eq. 9 over what the DHT can actually serve right now (steps 3+5).

        Unlike the in-process adapter, evaluations of departed or expired
        publishers are invisible — the deployment pays for churn with
        blinder judgements, never with wrong trust weighting.
        """
        self._ensure_user(observer)
        retrieved = self.overlay.retrieve(observer, file_id, self._now)
        if not retrieved.evaluations:
            return None
        reputation = self.system.reputation_matrix()
        return file_reputation(reputation, observer, retrieved.evaluations)
