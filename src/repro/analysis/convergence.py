"""Convergence analysis for multi-trust propagation.

How many steps n does ``RM = TM^n`` need before more propagation stops
changing anything that matters?  Two lenses:

* :func:`reach_by_step` — the coverage lens: fraction of ordered pairs with
  a non-zero entry at each power (the quantity the A2 ablation sweeps);
* :func:`ordering_convergence` — the ranking lens: Kendall tau between the
  global reputation orderings induced by successive powers, with
  :func:`steps_to_converge` finding the first step whose ordering is
  already (nearly) final.

Both are deterministic given the matrix.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.matrix import TrustMatrix
from ..core.multitrust import global_reputation_vector, iterated_powers

__all__ = ["reach_by_step", "ordering_convergence", "steps_to_converge"]

#: Score differences below this are ties (absorbs float noise from the
#: repeated matrix products).
_TIE_EPSILON = 1e-9


def _ordering_agreement(scores_a: Dict[str, float],
                        scores_b: Dict[str, float]) -> float:
    """Tie-aware pairwise ordering agreement in [-1, 1].

    A pair agrees when both vectors order it the same way *or* both tie it;
    it disagrees when the strict orders oppose, and half-disagrees when one
    vector ties what the other separates.  Unlike Kendall tau-a, two fully
    tied vectors score 1.0 — the right semantics for "did another
    propagation step change the ordering?".
    """
    keys = sorted(set(scores_a) & set(scores_b))
    if len(keys) < 2:
        raise ValueError("need at least two common keys")
    total = agreement = 0.0
    for index, key_i in enumerate(keys):
        for key_j in keys[index + 1:]:
            total += 1
            delta_a = scores_a[key_i] - scores_a[key_j]
            delta_b = scores_b[key_i] - scores_b[key_j]
            tied_a = abs(delta_a) < _TIE_EPSILON
            tied_b = abs(delta_b) < _TIE_EPSILON
            if tied_a and tied_b:
                agreement += 1
            elif tied_a or tied_b:
                agreement += 0.5
            elif delta_a * delta_b > 0:
                agreement += 1
    return 2.0 * (agreement / total) - 1.0


def reach_by_step(one_step: TrustMatrix, max_steps: int = 4,
                  observers: Optional[Sequence[str]] = None
                  ) -> List[float]:
    """Fraction of ordered (observer, target) pairs reachable at each power.

    ``observers`` fixes the pair universe (default: all node ids of the
    one-step matrix).  Entry ``i`` of the result corresponds to ``n=i+1``.
    """
    ids = list(observers) if observers is not None else one_step.node_ids()
    if len(ids) < 2:
        raise ValueError("need at least two nodes")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    total_pairs = len(ids) * (len(ids) - 1)
    fractions = []
    for matrix in iterated_powers(one_step, max_steps):
        reached = sum(
            1
            for observer in ids
            for target, value in matrix.row(observer).items()
            if target != observer and target in set(ids) and value > 0.0
        )
        fractions.append(reached / total_pairs)
    return fractions


def ordering_convergence(one_step: TrustMatrix, max_steps: int = 5
                         ) -> List[float]:
    """Kendall tau between global orderings of successive powers.

    Element ``i`` compares the orderings induced by ``TM^(i+1)`` and
    ``TM^(i+2)``; values near 1.0 mean further propagation no longer
    reorders anyone.  Requires at least two steps.
    """
    if max_steps < 2:
        raise ValueError(f"max_steps must be >= 2, got {max_steps}")
    ids = one_step.node_ids()
    vectors = []
    for matrix in iterated_powers(one_step, max_steps):
        scores = global_reputation_vector(matrix, observers=ids)
        # Fill missing targets with zero so orderings share a key set.
        vectors.append({node_id: scores.get(node_id, 0.0)
                        for node_id in ids})
    taus = []
    for earlier, later in zip(vectors, vectors[1:]):
        taus.append(_ordering_agreement(earlier, later))
    return taus


def steps_to_converge(one_step: TrustMatrix, max_steps: int = 6,
                      tolerance: float = 0.99) -> Optional[int]:
    """Smallest n whose ordering already agrees with n+1 at >= tolerance.

    Returns None when no step within ``max_steps`` reaches the tolerance.
    """
    if not 0.0 < tolerance <= 1.0:
        raise ValueError(f"tolerance must be in (0,1], got {tolerance}")
    taus = ordering_convergence(one_step, max_steps)
    for step, tau in enumerate(taus, start=1):
        if tau >= tolerance:
            return step
    return None
