"""Core library: the paper's multi-dimensional reputation system.

The public surface re-exports the main types so downstream code can write
``from repro.core import MultiDimensionalReputationSystem, ReputationConfig``.
"""

from .config import DEFAULT_CONFIG, ConfigError, ReputationConfig
from .distances import (SIMILARITY_METRICS, euclidean_similarity,
                        get_similarity, kl_similarity, l1_similarity)
from .evaluation import EvaluationStore, FileEvaluation, implicit_from_retention
from .explain import (DimensionContribution, ReputationExplanation,
                      TrustPath, explain_reputation)
from .file_reputation import FileJudgement, file_reputation, judge_file
from .file_trust import FileTrustAccumulator, build_file_trust_matrix, file_trust
from .incentive import (ActionCreditTracker, IncentiveAction,
                        ServiceDifferentiator, ServiceLevel)
from .integration import build_one_step_matrix
from .matrix import CsrTrustMatrix, TrustMatrix
from .matrix_backend import (CSR_BACKEND, DENSE_BACKEND, SPARSE_BACKEND,
                             BackendUnavailableError, CsrBackend,
                             DenseNumpyBackend, MatmulBackend,
                             SparseDictBackend, resolve_backend,
                             select_backend)
from .multitrust import (MultiTierView, TierAssignment,
                         compute_reputation_matrix, global_reputation_vector)
from .persistence import (load_system, save_system, system_from_dict,
                          system_to_dict)
from .pipeline import RefreshStats, TrustPipeline
from .reputation_system import MultiDimensionalReputationSystem, RefreshView
from .tuning import (TuningResult, fake_ranking_objective,
                     separation_objective, simplex_grid,
                     sweep_dimension_weights, sweep_eta)
from .user_trust import (UserTrustAccumulator, UserTrustStore,
                         build_user_trust_matrix)
from .volume_trust import (DownloadLedger, VolumeTrustAccumulator,
                           build_volume_trust_matrix, valid_download_volume)

__all__ = [
    "DEFAULT_CONFIG",
    "ConfigError",
    "ReputationConfig",
    "SIMILARITY_METRICS",
    "euclidean_similarity",
    "get_similarity",
    "kl_similarity",
    "l1_similarity",
    "EvaluationStore",
    "FileEvaluation",
    "implicit_from_retention",
    "DimensionContribution",
    "ReputationExplanation",
    "TrustPath",
    "explain_reputation",
    "FileJudgement",
    "file_reputation",
    "judge_file",
    "FileTrustAccumulator",
    "build_file_trust_matrix",
    "file_trust",
    "ActionCreditTracker",
    "IncentiveAction",
    "ServiceDifferentiator",
    "ServiceLevel",
    "build_one_step_matrix",
    "TrustMatrix",
    "CsrTrustMatrix",
    "MatmulBackend",
    "SparseDictBackend",
    "DenseNumpyBackend",
    "CsrBackend",
    "SPARSE_BACKEND",
    "DENSE_BACKEND",
    "CSR_BACKEND",
    "BackendUnavailableError",
    "select_backend",
    "resolve_backend",
    "TrustPipeline",
    "RefreshStats",
    "MultiTierView",
    "TierAssignment",
    "compute_reputation_matrix",
    "global_reputation_vector",
    "MultiDimensionalReputationSystem",
    "RefreshView",
    "load_system",
    "save_system",
    "system_from_dict",
    "system_to_dict",
    "TuningResult",
    "fake_ranking_objective",
    "separation_objective",
    "simplex_grid",
    "sweep_dimension_weights",
    "sweep_eta",
    "UserTrustStore",
    "UserTrustAccumulator",
    "build_user_trust_matrix",
    "DownloadLedger",
    "VolumeTrustAccumulator",
    "build_volume_trust_matrix",
    "valid_download_volume",
]
