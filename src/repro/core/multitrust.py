"""Multi-trust reputation: RM = TM^n (Section 3.2, Eq. 8) and trust tiers.

The one-step matrix captures private, direct trust; raising it to the n-th
power propagates trust through friends-of-friends, approaching EigenTrust's
global view as ``n`` grows.  Section 2 (after Lian et al. [13]) describes the
accompanying *multi-tier* view: immediate friends form tier 1, their friends
tier 2, and so on; service differentiation looks at which tier a requester
falls into, and ranks within a tier by the matrix value at that tier.

This module provides both the reputation matrix and the tier machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..lint.contracts import check_row_stochastic
from ..obs.recorder import NULL_RECORDER, NullRecorder
from .config import DEFAULT_CONFIG, ReputationConfig
from .matrix import TrustMatrix
from .matrix_backend import SPARSE_BACKEND, MatmulBackend

__all__ = ["compute_reputation_matrix", "iterated_powers", "matrix_residual",
           "TierAssignment", "MultiTierView", "global_reputation_vector"]


def compute_reputation_matrix(one_step: TrustMatrix,
                              steps: Optional[int] = None,
                              config: ReputationConfig = DEFAULT_CONFIG,
                              recorder: NullRecorder = NULL_RECORDER,
                              backend: MatmulBackend = SPARSE_BACKEND
                              ) -> TrustMatrix:
    """Eq. 8: ``RM = TM ** n``; ``steps`` overrides ``config.multitrust_steps``.

    The result is always one ``backend.power`` call (sparse repeated
    squaring by default, or the dense numpy product — see
    :mod:`~repro.core.matrix_backend`), so observing a run never changes
    its RM.  A live recorder additionally gets a ``multitrust_iteration``
    event per step with the L∞ residual between successive powers — the
    paper's convergence-toward-EigenTrust story, measured instead of
    asserted — from plain iterated products computed off the result path.
    """
    n = steps if steps is not None else config.multitrust_steps
    # RM = TM^n converges (Eq. 8) only for (sub-)stochastic TM; checked
    # behind REPRO_CHECK_INVARIANTS on both the input and the result.
    check_row_stochastic(one_step, name="TM", strict=False)
    if not recorder.enabled:
        result = backend.power(one_step, n)
    else:
        with recorder.span("multitrust.power") as span:
            result = backend.power(one_step, n)
            powers = iterated_powers(one_step, n, backend)
            previous = next(powers)
            for iteration, current in enumerate(powers, start=2):
                residual = matrix_residual(previous, current)
                recorder.event("multitrust_iteration", iteration=iteration,
                               residual=residual,
                               entries=current.entry_count())
                recorder.observe("multitrust.residual", residual)
                previous = current
            span.count("iterations", max(n - 1, 0))
        recorder.inc("multitrust.computations")
        recorder.observe("multitrust.steps", n)
    check_row_stochastic(result, name=f"RM=TM^{n}", strict=False)
    return result


def iterated_powers(one_step: TrustMatrix, steps: int,
                    backend: MatmulBackend = SPARSE_BACKEND
                    ) -> Iterator[TrustMatrix]:
    """``TM^1 .. TM^steps``, each power the previous one times ``TM``.

    The products associate left to right (``(TM·TM)·TM``…), unlike
    ``backend.power``'s repeated squaring, so every intermediate power
    exists; callers use them for tiers, residuals and convergence tables,
    never as the published RM.
    """
    current = one_step
    yield current
    for _ in range(1, steps):
        current = backend.matmul(current, one_step)
        yield current


def matrix_residual(previous: TrustMatrix, current: TrustMatrix) -> float:
    """L∞ distance between two matrices over the union of their entries.

    Read off both array forms (:meth:`TrustMatrix.to_csr`) aligned over
    the union of their ids: the instrumented power loop calls this once
    per iteration, and walking row dicts used to cost more than the
    arithmetic.
    """
    forms = (previous.to_csr(), current.to_csr())
    ids = sorted(set(forms[0].ids).union(forms[1].ids))
    cells, values = [], []
    for form in forms:
        indptr, indices, data = form.over(ids)
        rows = np.repeat(np.arange(len(ids)), np.diff(indptr))
        cells.append(rows * len(ids) + indices)
        values.append(data)
    union = np.union1d(*cells)
    aligned = np.zeros((2, len(union)))
    for side, (cell, value) in enumerate(zip(cells, values)):
        aligned[side, np.searchsorted(union, cell)] = value
    return float(np.max(np.abs(aligned[1] - aligned[0]), initial=0.0))


@dataclass(frozen=True)
class TierAssignment:
    """Where a target user lands in an observer's trust tiers.

    ``tier`` is the smallest k such that ``(TM^k)_observer,target > 0``
    (1 = immediate friend); ``value`` is the matrix entry at that tier, used
    for within-tier ranking.  ``tier`` is ``None`` when the target is
    unreachable within the configured horizon.
    """

    target: str
    tier: Optional[int]
    value: float

    def sort_key(self) -> tuple:
        """Orders: lower tier first, then higher value (paper's rule)."""
        tier = self.tier if self.tier is not None else float("inf")
        return (tier, -self.value)


class MultiTierView:
    """Precomputed tier matrices ``TM^1 .. TM^max_tier`` for tier queries.

    This is the Lian-et-al-style multi-tier incentive structure the paper
    builds on: "the immediate friends form the first tier, friends' friends
    form the next and so on ... The smaller level the user belongs to, the
    higher priority they are given."
    """

    def __init__(self, one_step: TrustMatrix, max_tier: int = 3):
        if max_tier < 1:
            raise ValueError(f"max_tier must be >= 1, got {max_tier}")
        self.max_tier = max_tier
        self._tiers: List[TrustMatrix] = list(
            iterated_powers(one_step, max_tier))

    def tier_matrix(self, tier: int) -> TrustMatrix:
        """The ``TM^tier`` matrix (tier counts from 1)."""
        if not 1 <= tier <= self.max_tier:
            raise ValueError(f"tier must be in [1, {self.max_tier}], got {tier}")
        return self._tiers[tier - 1]

    def assign(self, observer: str, target: str) -> TierAssignment:
        """Find the first tier at which ``observer`` reaches ``target``."""
        for tier_number, matrix in enumerate(self._tiers, start=1):
            value = matrix.get(observer, target)
            if value > 0.0:
                return TierAssignment(target=target, tier=tier_number, value=value)
        return TierAssignment(target=target, tier=None, value=0.0)

    def rank_requesters(self, observer: str,
                        requesters: Sequence[str]) -> List[TierAssignment]:
        """Order download requesters by (tier asc, tier-value desc).

        This is the priority order an uploader's queue should serve, per the
        paper's multi-tier service differentiation.
        """
        assignments = [self.assign(observer, requester) for requester in requesters]
        return sorted(assignments, key=TierAssignment.sort_key)


def global_reputation_vector(reputation: TrustMatrix,
                             observers: Optional[Sequence[str]] = None
                             ) -> Dict[str, float]:
    """Aggregate per-target reputation: mean of RM column over observers.

    The paper's reputation is pairwise (RM_ij); benchmarks that compare
    against global mechanisms (EigenTrust) need a single score per user, for
    which the column mean over the observing population is the natural
    projection.
    """
    ids = list(observers) if observers is not None else reputation.node_ids()
    if not ids:
        return {}
    totals: Dict[str, float] = {}
    for i in ids:
        for j, value in reputation.row_view(i).items():
            totals[j] = totals.get(j, 0.0) + value
    return {j: total / len(ids) for j, total in totals.items()}
