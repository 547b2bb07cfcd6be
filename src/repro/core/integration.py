"""Integration of the trust dimensions into the one-step matrix TM (Eq. 7).

::

    TM = alpha * FM + beta * DM + gamma * UM     (alpha + beta + gamma = 1)

The paper notes "when there are more methods to get direct trust
relationship, this equation can be extended easily":
:meth:`TrustMatrix.weighted_sum` takes any number of ``(weight, matrix)``
terms, so a further dimension is one more term.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..lint.contracts import check_row_stochastic, check_simplex
from .config import DEFAULT_CONFIG, ReputationConfig
from .evaluation import EvaluationStore
from .file_trust import build_file_trust_matrix
from .matrix import TrustMatrix
from .user_trust import UserTrustStore, build_user_trust_matrix
from .volume_trust import DownloadLedger, build_volume_trust_matrix

__all__ = ["build_one_step_matrix", "build_dimension_matrices", "integrate"]


def build_one_step_matrix(evaluations: EvaluationStore,
                          ledger: Optional[DownloadLedger] = None,
                          user_trust: Optional[UserTrustStore] = None,
                          config: ReputationConfig = DEFAULT_CONFIG
                          ) -> TrustMatrix:
    """Build ``TM = alpha*FM + beta*DM + gamma*UM`` from the raw stores.

    Dimensions whose store is absent (or whose weight is zero) contribute
    nothing; the remaining weights are used as configured, *not* re-scaled —
    a deliberately conservative choice that keeps rows sub-stochastic when a
    dimension is missing rather than silently inflating the others.
    """
    return integrate(build_dimension_matrices(evaluations, ledger,
                                              user_trust, config), config)


def build_dimension_matrices(evaluations: EvaluationStore,
                             ledger: Optional[DownloadLedger] = None,
                             user_trust: Optional[UserTrustStore] = None,
                             config: ReputationConfig = DEFAULT_CONFIG
                             ) -> Dict[str, TrustMatrix]:
    """FM, DM and UM (Eqs. 3, 5, 6) in Eq. 7 order, keyed by dimension.

    The keys are those of
    :meth:`~repro.core.pipeline.TrustPipeline.dimension_matrices`; a
    dimension whose weight is zero or whose store is absent is left out.
    """
    matrices: Dict[str, TrustMatrix] = {}
    if config.alpha > 0:
        matrices["file"] = build_file_trust_matrix(evaluations, config)
    if config.beta > 0 and ledger is not None:
        matrices["volume"] = build_volume_trust_matrix(ledger, evaluations,
                                                       config)
    if config.gamma > 0 and user_trust is not None:
        matrices["user"] = build_user_trust_matrix(user_trust)
    return matrices


def integrate(matrices: Mapping[str, TrustMatrix],
              config: ReputationConfig = DEFAULT_CONFIG) -> TrustMatrix:
    """Eq. 7 over :func:`build_dimension_matrices`' result."""
    if not matrices:
        return TrustMatrix()
    check_simplex((config.alpha, config.beta, config.gamma),
                  name="(alpha, beta, gamma)")
    weights = {"file": config.alpha, "volume": config.beta,
               "user": config.gamma}
    integrated = TrustMatrix.weighted_sum(
        (weights[dimension], matrix)
        for dimension, matrix in matrices.items())
    check_row_stochastic(integrated, name="TM", strict=False)
    return integrated
