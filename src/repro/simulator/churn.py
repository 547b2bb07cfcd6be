"""Peer churn: session and offline durations.

"In a real P2P network, users may join and leave the system frequently and
churn may affect data's availability" (Section 4.3).  Sessions and offline
gaps are exponentially distributed, the standard first-order churn model;
the simulation schedules leave/rejoin events from these draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["ChurnModel"]

#: Peers join staggered uniformly over this initial window.
JOIN_SPREAD_SECONDS = 3600.0


@dataclass
class ChurnModel:
    """Exponential session/offline churn."""

    mean_session_seconds: float = 6 * 3600.0
    mean_offline_seconds: float = 18 * 3600.0
    seed: int = 23

    def __post_init__(self) -> None:
        if self.mean_session_seconds <= 0:
            raise ValueError("mean_session_seconds must be positive")
        if self.mean_offline_seconds <= 0:
            raise ValueError("mean_offline_seconds must be positive")
        self._rng = random.Random(self.seed)

    def initial_join_delay(self) -> float:
        """Delay before a peer's first join."""
        return self._rng.uniform(0.0, JOIN_SPREAD_SECONDS)

    def session_duration(self) -> float:
        """How long the peer stays online this session."""
        return self._rng.expovariate(1.0 / self.mean_session_seconds)

    def offline_duration(self) -> float:
        """How long the peer stays offline before rejoining."""
        return self._rng.expovariate(1.0 / self.mean_offline_seconds)

    def scaled(self, factor: float) -> "ChurnModel":
        """A copy churning ``factor`` times as fast (sweep helper).

        Session and offline means shrink by ``factor`` so the ratio of
        online to offline time is preserved; the RNG seed carries over so a
        sweep cell differs from its neighbours only in rate.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        return ChurnModel(
            mean_session_seconds=self.mean_session_seconds / factor,
            mean_offline_seconds=self.mean_offline_seconds / factor,
            seed=self.seed)
