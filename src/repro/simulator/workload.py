"""Request workload: who asks for which file, when.

A global Poisson arrival process; each arrival picks an online requester
(activity-weighted, heavy-tailed as in Maze) and a file the requester does
not already hold (popularity-weighted among files alive at that time).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .files import FileRegistry

__all__ = ["WorkloadModel"]

#: Log-normal sigma of per-peer activity weights.
ACTIVITY_SIGMA = 1.0


@dataclass
class WorkloadModel:
    """Poisson request generator over a peer population and catalog."""

    #: Mean requests per simulated second across the whole system.
    request_rate: float = 0.05
    seed: int = 11

    def __post_init__(self) -> None:
        if self.request_rate <= 0:
            raise ValueError("request_rate must be positive")
        self._rng = random.Random(self.seed)
        self._activity: Dict[str, float] = {}

    def register_peer(self, peer_id: str) -> None:
        """Draw (once) the peer's activity weight."""
        if peer_id not in self._activity:
            self._activity[peer_id] = self._rng.lognormvariate(
                0.0, ACTIVITY_SIGMA)

    def next_interarrival(self) -> float:
        """Seconds until the next request arrival."""
        return self._rng.expovariate(self.request_rate)

    def pick_request(self, online_peers: Sequence[str],
                     registry: FileRegistry,
                     now: float) -> Optional[Tuple[str, str]]:
        """Pick ``(requester, file_id)`` or None when nothing is feasible.

        Retries a few samples to find a (requester, file) pair where the
        requester does not already hold the file and at least one other peer
        could serve it.
        """
        if not online_peers:
            return None
        weights = [self._activity.get(peer_id, 1.0) for peer_id in online_peers]
        for _ in range(8):
            requester = self._rng.choices(online_peers, weights=weights, k=1)[0]
            sampled = registry.catalog.sample(self._rng, timestamp=now, k=1)
            if not sampled:
                return None
            file_id = sampled[0].file_id
            if registry.holds(requester, file_id):
                continue
            return requester, file_id
        return None
