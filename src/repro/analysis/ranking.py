"""Rank-comparison utilities for reputation vectors.

Benchmarks compare mechanisms by how they *order* users (who gets served
first) rather than by raw scores, so Kendall's tau and top-k overlap are the
right tools.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..obs.stats import mean, ordered_sum

__all__ = ["kendall_tau", "top_k_overlap", "rank_of", "separation",
           "jain_fairness"]


def kendall_tau(scores_a: Dict[str, float],
                scores_b: Dict[str, float]) -> float:
    """Kendall tau-a over the keys present in both score maps.

    +1 = identical ordering, -1 = reversed; ties count as discordant-free
    (tau-a).  Requires at least two common keys.
    """
    common = sorted(set(scores_a) & set(scores_b))
    if len(common) < 2:
        raise ValueError("need at least two common keys for Kendall tau")
    concordant = discordant = 0
    for index, key_i in enumerate(common):
        for key_j in common[index + 1:]:
            delta_a = scores_a[key_i] - scores_a[key_j]
            delta_b = scores_b[key_i] - scores_b[key_j]
            product = delta_a * delta_b
            if product > 0:
                concordant += 1
            elif product < 0:
                discordant += 1
    pairs = len(common) * (len(common) - 1) / 2
    return (concordant - discordant) / pairs


def top_k_overlap(scores_a: Dict[str, float], scores_b: Dict[str, float],
                  k: int) -> float:
    """|top-k(a) ∩ top-k(b)| / k (ties broken by key for determinism)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    top_a = {key for key, _ in sorted(scores_a.items(),
                                      key=lambda kv: (-kv[1], kv[0]))[:k]}
    top_b = {key for key, _ in sorted(scores_b.items(),
                                      key=lambda kv: (-kv[1], kv[0]))[:k]}
    return len(top_a & top_b) / k


def rank_of(scores: Dict[str, float], target: str) -> int:
    """1-based rank of ``target`` (1 = highest score)."""
    if target not in scores:
        raise KeyError(target)
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    for position, (key, _) in enumerate(ordered, start=1):
        if key == target:
            return position
    raise AssertionError("unreachable")


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: (Σx)² / (n·Σx²), in (0, 1].

    1 = perfectly equal allocation; 1/n = one user gets everything.  Used
    to quantify how *unequal* service differentiation makes the bandwidth
    allocation (by design it should lower fairness across behaviour
    classes while staying fair within the honest class).
    """
    data = [v for v in values]
    if not data:
        raise ValueError("values must be non-empty")
    if any(v < 0 for v in data):
        raise ValueError("values must be non-negative")
    total = ordered_sum(data)
    if total == 0:
        return 1.0  # nobody gets anything: trivially equal
    squares = ordered_sum(v * v for v in data)
    return (total * total) / (len(data) * squares)


def separation(scores: Dict[str, float], good: Sequence[str],
               bad: Sequence[str]) -> float:
    """Mean score of ``good`` minus mean score of ``bad`` members.

    Positive separation means the mechanism ranks the good population above
    the bad one on average; benchmarks assert its sign and magnitude.
    """
    good_scores = [scores.get(user, 0.0) for user in good]
    bad_scores = [scores.get(user, 0.0) for user in bad]
    if not good_scores or not bad_scores:
        raise ValueError("both populations must be non-empty")
    return mean(good_scores) - mean(bad_scores)
