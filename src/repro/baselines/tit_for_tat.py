"""Tit-for-Tat baseline: private download history only.

Following BitTorrent [6] / emule [7] and the analysis in Lian et al. [13]:
a peer prioritises requesters from whom *it* has successfully downloaded.
Trust is strictly private — no transitivity, no sharing — which is exactly
why its request coverage is poor ("a one month download log only enforces
Tit-for-Tat to only 2% of a peer's uploads and the other 98% are blind
uploads", Section 2).  Benchmark C1 measures that coverage.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .base import ReputationMechanism

__all__ = ["TitForTatMechanism"]


class TitForTatMechanism(ReputationMechanism):
    """Private-history reciprocity: trust = bytes downloaded from target.

    The history is never expired: it covers the whole run.
    """

    name = "tit-for-tat"

    def __init__(self) -> None:
        self._received: Dict[Tuple[str, str], float] = {}

    def record_download(self, downloader: str, uploader: str, file_id: str,
                        size_bytes: float, timestamp: float = 0.0) -> None:
        key = (downloader, uploader)
        self._received[key] = self._received.get(key, 0.0) + size_bytes

    def reputation(self, observer: str, target: str) -> float:
        """Bytes ``observer`` has received from ``target`` (private history)."""
        return self._received.get((observer, target), 0.0)

    def has_history(self, observer: str, target: str) -> bool:
        """True when the observer's decision about target is *not* blind."""
        return self._received.get((observer, target), 0.0) > 0.0
