"""Weight tuning: the paper's future work, made executable.

Section 5: "In the future, we need to do more experiments to improve the
equations and **choose the weight values** in our work."  This module does
those experiments: given an objective function over a
:class:`~repro.core.config.ReputationConfig`, it sweeps

* the Eq. 1 blend (eta, rho = 1 - eta) over a grid, and
* the Eq. 7 dimension weights (alpha, beta, gamma) over a simplex lattice,

and returns the best configuration with the full trace of evaluated points.
Two ready-made objectives cover the paper's goals: separating known-good
from known-bad users, and ranking fake files below real ones (AUC).

Everything is deterministic; objectives are called once per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Sequence, Tuple

from ..lint.contracts import check_simplex
from ..obs.stats import ordered_sum
from .config import DEFAULT_CONFIG, ReputationConfig
from .matrix import TrustMatrix

__all__ = [
    "TuningResult",
    "simplex_grid",
    "sweep_eta",
    "sweep_dimension_weights",
    "separation_objective",
    "fake_ranking_objective",
]

Objective = Callable[[ReputationConfig], float]


@dataclass(frozen=True)
class TuningPoint:
    """One evaluated configuration."""

    config: ReputationConfig
    score: float


@dataclass
class TuningResult:
    """Outcome of a sweep: the winner plus every evaluated point."""

    best: TuningPoint
    points: List[TuningPoint] = field(default_factory=list)

    @property
    def best_config(self) -> ReputationConfig:
        return self.best.config

    @property
    def best_score(self) -> float:
        return self.best.score

    def table_rows(self) -> List[List[float]]:
        """(eta, alpha, beta, gamma, score) rows for report rendering."""
        return [[point.config.eta, point.config.alpha, point.config.beta,
                 point.config.gamma, point.score]
                for point in self.points]


def simplex_grid(resolution: int) -> List[Tuple[float, float, float]]:
    """All (a, b, c) with a+b+c = 1 on a lattice of step 1/resolution."""
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    points = []
    for i in range(resolution + 1):
        for j in range(resolution + 1 - i):
            k = resolution - i - j
            point = (i / resolution, j / resolution, k / resolution)
            check_simplex(point, name="simplex_grid point")
            points.append(point)
    return points


def _run_sweep(configs: Sequence[ReputationConfig],
               objective: Objective) -> TuningResult:
    if not configs:
        raise ValueError("no configurations to sweep")
    points = [TuningPoint(config=config, score=objective(config))
              for config in configs]
    best = max(points, key=lambda point: point.score)
    return TuningResult(best=best, points=points)


def sweep_eta(objective: Objective,
              base: ReputationConfig = DEFAULT_CONFIG,
              steps: int = 10) -> TuningResult:
    """Sweep the Eq. 1 blend eta over {0, 1/steps, ..., 1}."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    for i in range(steps + 1):
        check_simplex((i / steps, 1.0 - i / steps), name="(eta, rho)")
    configs = [base.replace(eta=i / steps, rho=1.0 - i / steps)
               for i in range(steps + 1)]
    return _run_sweep(configs, objective)


def sweep_dimension_weights(objective: Objective,
                            base: ReputationConfig = DEFAULT_CONFIG,
                            resolution: int = 4) -> TuningResult:
    """Sweep Eq. 7's (alpha, beta, gamma) over a simplex lattice."""
    configs = [base.replace(alpha=alpha, beta=beta, gamma=gamma)
               for alpha, beta, gamma in simplex_grid(resolution)]
    return _run_sweep(configs, objective)


# ---------------------------------------------------------------------- #
# Ready-made objectives                                                  #
# ---------------------------------------------------------------------- #

def separation_objective(build_reputation: Callable[[ReputationConfig],
                                                    TrustMatrix],
                         observers: Sequence[str],
                         good: Sequence[str],
                         bad: Sequence[str]) -> Objective:
    """Score = mean reputation of ``good`` minus ``bad`` in observers' eyes.

    ``build_reputation`` maps a candidate config to the RM it induces on
    some fixed behavioural history (the caller closes over its stores).
    """
    if not observers or not good or not bad:
        raise ValueError("observers, good and bad must all be non-empty")

    def objective(config: ReputationConfig) -> float:
        reputation = build_reputation(config)
        good_total = bad_total = 0.0
        for observer in observers:
            row = reputation.row(observer)
            good_total += ordered_sum(row.get(target, 0.0)
                                      for target in good
                                      if target != observer)
            bad_total += ordered_sum(row.get(target, 0.0) for target in bad
                                     if target != observer)
        good_mean = good_total / (len(observers) * len(good))
        bad_mean = bad_total / (len(observers) * len(bad))
        return good_mean - bad_mean

    return objective


def fake_ranking_objective(score_files: Callable[[ReputationConfig],
                                                 Mapping[str, float]],
                           ground_truth: Mapping[str, bool]) -> Objective:
    """Score = AUC of ranking fakes below reals under the candidate config.

    ``score_files`` maps a config to per-file Eq. 9 scores (lower = more
    likely fake); ``ground_truth[file] = True`` marks real fakes.
    """
    from ..analysis.classification import auc, roc_points

    def objective(config: ReputationConfig) -> float:
        scores = dict(score_files(config))
        truth = {file_id: ground_truth[file_id]
                 for file_id in scores if file_id in ground_truth}
        if not truth:
            return 0.0
        return auc(roc_points({f: scores[f] for f in truth}, truth))

    return objective
