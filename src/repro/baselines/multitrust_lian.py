"""Lian et al.'s hybrid multi-trust baseline (MSR-TR-2006-14, ref [13]).

The scheme the paper extends: build a one-step trust matrix from *download
traffic only* (Tit-for-Tat-style private history), then derive two-step,
three-step, ... matrices ``TM^k`` whose tiers interpolate between private
Tit-for-Tat (tier 1) and global EigenTrust-like trust (deep tiers).
Service differentiation serves requesters by (tier asc, value desc).

The crucial difference from the paper's system is the *single* trust
dimension: the one-step matrix is built only from download volume, so it
inherits the sparsity that motivates the multi-dimensional design (claim C5).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.matrix import TrustMatrix, normalize_rows
from ..core.multitrust import MultiTierView, TierAssignment
from .base import ReputationMechanism

__all__ = ["LianMultiTrustMechanism"]


class LianMultiTrustMechanism(ReputationMechanism):
    """Download-volume-only multi-tier trust (the paper's closest ancestor)."""

    name = "multitrust-lian"

    #: Deepest tier: ``TM^1 .. TM^MAX_TIER`` are derived.
    MAX_TIER = 3

    def __init__(self) -> None:
        self._volume: Dict[Tuple[str, str], float] = {}
        self._view: Optional[MultiTierView] = None
        self._dirty = True

    def record_download(self, downloader: str, uploader: str, file_id: str,
                        size_bytes: float, timestamp: float = 0.0) -> None:
        key = (downloader, uploader)
        self._volume[key] = self._volume.get(key, 0.0) + size_bytes
        self._dirty = True

    def refresh(self) -> None:
        raw: Dict[str, Dict[str, float]] = {}
        for (i, j), volume in self._volume.items():
            if volume > 0:
                raw.setdefault(i, {})[j] = volume
        self._view = MultiTierView(normalize_rows(raw), self.MAX_TIER)
        self._dirty = False

    def _ensure_view(self) -> MultiTierView:
        if self._dirty or self._view is None:
            self.refresh()
        assert self._view is not None
        return self._view

    def assign_tier(self, observer: str, target: str) -> TierAssignment:
        """Which tier does ``target`` fall into for ``observer``?"""
        return self._ensure_view().assign(observer, target)

    def reputation(self, observer: str, target: str) -> float:
        """Scalarised tier assignment: higher is better.

        A target at tier ``k`` with in-tier value ``v`` maps to
        ``(MAX_TIER - k + v)`` so any tier-k target outranks every
        tier-(k+1) target, matching the paper's ordering rule; unreachable
        targets score 0.
        """
        assignment = self.assign_tier(observer, target)
        if assignment.tier is None:
            return 0.0
        return (self.MAX_TIER - assignment.tier) + min(assignment.value, 1.0)

    def one_step_matrix(self) -> TrustMatrix:
        return self._ensure_view().tier_matrix(1)
