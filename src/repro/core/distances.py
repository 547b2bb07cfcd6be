"""Distance metrics between evaluation vectors (Eq. 2 and footnote 1).

The paper defines file-based direct trust as ``FT_ij = 1 - (1/m) * sum_k
|E_ik - E_jk|`` over the ``m`` files both users evaluated, i.e. one minus the
mean L1 distance.  Footnote 1 notes that "there are also many other equations
to define the distance between two vectors, such as Kullback-Leibler distance
and Euclid distance"; this module implements all three so the A1 ablation can
compare them.

Every metric maps two equal-length sequences of evaluations in ``[0, 1]`` to
a *similarity* in ``[0, 1]`` (1 = identical opinions, 0 = maximally
different), so they are drop-in replacements inside Eq. 2.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence

__all__ = [
    "l1_similarity",
    "euclidean_similarity",
    "kl_similarity",
    "get_similarity",
    "SIMILARITY_METRICS",
]

_EPSILON = 1e-12


def _l1_term(a: float, b: float) -> float:
    return abs(a - b)


def _l1_finalize(total: float, count: int) -> float:
    return 1.0 - total / count


def _euclidean_term(a: float, b: float) -> float:
    return (a - b) ** 2


def _euclidean_finalize(total: float, count: int) -> float:
    return 1.0 - math.sqrt(total / count)


def _bernoulli_kl(p: float, q: float) -> float:
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


def _kl_term(a: float, b: float) -> float:
    p = min(max(a, _EPSILON), 1.0 - _EPSILON)
    q = min(max(b, _EPSILON), 1.0 - _EPSILON)
    return 0.5 * (_bernoulli_kl(p, q) + _bernoulli_kl(q, p))


def _kl_finalize(total: float, count: int) -> float:
    return math.exp(-total / count)


#: Every Eq. 2 metric decomposes as ``finalize(sum_k term(a_k, b_k), m)``.
#: Matrix builders exploit this to accumulate pairwise sums in one pass
#: over the file index instead of re-intersecting evaluation vectors.
PAIRWISE_ACCUMULATORS: Dict[str, tuple] = {
    "l1": (_l1_term, _l1_finalize),
    "euclidean": (_euclidean_term, _euclidean_finalize),
    "kl": (_kl_term, _kl_finalize),
}


def _similarity(term: Callable[[float, float], float],
                finalize: Callable[[float, int], float],
                a: Sequence[float], b: Sequence[float]) -> float:
    """The vector form: ``term`` summed left to right — the order of the
    matrix builders' per-pair totals, so both agree bit for bit."""
    if len(a) != len(b):
        raise ValueError(
            f"evaluation vectors must have equal length, got {len(a)} and {len(b)}")
    if not a:
        raise ValueError("evaluation vectors must be non-empty (m >= 1 in Eq. 2)")
    total = 0.0
    for x, y in zip(a, b):
        total += term(x, y)
    return finalize(total, len(a))


def l1_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    """Paper's Eq. 2: one minus the mean absolute difference."""
    return _similarity(_l1_term, _l1_finalize, a, b)


def euclidean_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    """One minus the root-mean-square difference.

    RMS difference of values in [0, 1] is itself in [0, 1], so the result is
    a valid similarity.  Compared with L1 it punishes a single large
    disagreement more than many small ones.
    """
    return _similarity(_euclidean_term, _euclidean_finalize, a, b)


def kl_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    """Similarity derived from a symmetrised Kullback-Leibler divergence.

    Each evaluation ``e`` is treated as a Bernoulli distribution
    ``(e, 1 - e)`` (the probability the user considers the file good).  The
    symmetrised KL divergence between the two Bernoullis is averaged over the
    co-evaluated files and squashed to ``[0, 1]`` via ``exp(-divergence)``.
    Evaluations are clamped away from {0, 1} to keep the divergence finite.
    """
    return _similarity(_kl_term, _kl_finalize, a, b)


SIMILARITY_METRICS: Dict[str, Callable[[Sequence[float], Sequence[float]], float]] = {
    "l1": l1_similarity,
    "euclidean": euclidean_similarity,
    "kl": kl_similarity,
}


def get_similarity(name: str) -> Callable[[Sequence[float], Sequence[float]], float]:
    """Look up a similarity metric by config name (see ``ReputationConfig``)."""
    try:
        return SIMILARITY_METRICS[name]
    except KeyError:
        raise ValueError(
            f"unknown similarity metric {name!r}; "
            f"expected one of {sorted(SIMILARITY_METRICS)}") from None
