"""Configuration for the multi-dimensional reputation system.

The paper leaves several knobs open ("we need to do more experiments to
improve the equations and choose the weight values"); this module collects
every such knob in one validated, immutable configuration object so that the
ablation benchmarks (A1-A3 in DESIGN.md) can sweep them systematically.

Weights and their roles:

* ``eta`` / ``rho`` -- Eq. 1 blend of implicit and explicit file evaluation
  (``eta + rho == 1``).
* ``alpha`` / ``beta`` / ``gamma`` -- Eq. 7 blend of the file-based (FM),
  download-volume-based (DM) and user-based (UM) one-step matrices
  (``alpha + beta + gamma == 1``).
* ``multitrust_steps`` -- the ``n`` in ``RM = TM ** n`` (Eq. 8).  The paper
  chooses ``n = 1`` for Maze because the multi-dimensional one-step matrix is
  dense enough; sparser deployments need larger ``n``.
* ``fake_file_threshold`` -- per-user download threshold on Eq. 9's file
  reputation ("he can judge whether to download this file by the threshold
  set by himself").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .distances import SIMILARITY_METRICS
from .matrix_backend import BACKEND_SPECS

__all__ = ["ReputationConfig", "ConfigError", "DEFAULT_CONFIG"]

_WEIGHT_TOLERANCE = 1e-9


class ConfigError(ValueError):
    """Raised when a :class:`ReputationConfig` violates a paper invariant."""


def _require_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class ReputationConfig:
    """All tunable parameters of the reputation system.

    Instances are immutable; use :meth:`replace` to derive variants during
    parameter sweeps.
    """

    # Eq. 1 -- implicit vs. explicit evaluation blend.
    eta: float = 0.4
    rho: float = 0.6

    # Eq. 7 -- dimension weights: file trust, volume trust, user trust.
    alpha: float = 0.5
    beta: float = 0.3
    gamma: float = 0.2

    # Eq. 8 -- number of multi-trust steps (n).
    multitrust_steps: int = 1

    # Matmul backend for RM = TM^n: one of matrix_backend.BACKEND_SPECS
    # (see repro.core.matrix_backend).  Resolved only when a power runs
    # (multitrust_steps >= 2).
    matmul_backend: str = "auto"

    # Eq. 2 -- distance metric between evaluation vectors: a key of
    # distances.SIMILARITY_METRICS ("l1" is the paper's).
    distance_metric: str = "l1"

    # Eq. 9 -- default per-user threshold for rejecting a file as fake.
    fake_file_threshold: float = 0.5

    # Implicit evaluation: retention time (seconds) at which a retained file
    # saturates to an implicit evaluation of 1.0.  Files deleted immediately
    # score near 0.  30 days, matching the paper's log window.
    retention_saturation_seconds: float = 30 * 24 * 3600.0

    # Section 4.3 -- evaluations older than this interval are pruned
    # ("users only need to preserve the evaluations within an interval").
    evaluation_retention_interval: float = 30 * 24 * 3600.0

    # Minimum co-evaluated files for a file-based trust edge to exist.  The
    # paper requires a non-empty intersection (m >= 1).
    min_overlap: int = 1

    # Incentive mechanism (Section 3.4): the request-time offset granted to
    # the *highest* reputation user, in seconds (applied negatively), and the
    # bandwidth quota (bytes/sec) applied to the *lowest* reputation user.
    max_queue_offset_seconds: float = 60.0
    min_bandwidth_quota: float = 16 * 1024.0
    max_bandwidth_quota: float = 1024 * 1024.0

    # Reputation credit granted for each incentivised action (Section 3.4:
    # "uploading real files, voting on files and ranking other users honestly
    # and even deleting fake files quicker can increase a user's reputation").
    upload_credit: float = 1.0
    vote_credit: float = 0.25
    rank_credit: float = 0.1
    delete_fake_credit: float = 0.5

    def __post_init__(self) -> None:
        for name in ("eta", "rho", "alpha", "beta", "gamma",
                     "fake_file_threshold"):
            _require_unit(name, getattr(self, name))
        if abs(self.eta + self.rho - 1.0) > _WEIGHT_TOLERANCE:
            raise ConfigError(
                f"eta + rho must equal 1 (Eq. 1), got {self.eta + self.rho}")
        total = self.alpha + self.beta + self.gamma
        if abs(total - 1.0) > _WEIGHT_TOLERANCE:
            raise ConfigError(
                f"alpha + beta + gamma must equal 1 (Eq. 7), got {total}")
        if self.multitrust_steps < 1:
            raise ConfigError(
                f"multitrust_steps must be >= 1, got {self.multitrust_steps}")
        if self.distance_metric not in SIMILARITY_METRICS:
            raise ConfigError(
                f"unknown distance_metric {self.distance_metric!r}; "
                f"expected one of {sorted(SIMILARITY_METRICS)}")
        if self.matmul_backend not in BACKEND_SPECS:
            raise ConfigError(
                f"unknown matmul_backend {self.matmul_backend!r}; "
                f"expected one of {list(BACKEND_SPECS)}")
        if self.retention_saturation_seconds <= 0:
            raise ConfigError("retention_saturation_seconds must be positive")
        if self.evaluation_retention_interval <= 0:
            raise ConfigError("evaluation_retention_interval must be positive")
        if self.min_overlap < 1:
            raise ConfigError(f"min_overlap must be >= 1, got {self.min_overlap}")
        if self.min_bandwidth_quota <= 0:
            raise ConfigError("min_bandwidth_quota must be positive")
        if self.max_bandwidth_quota < self.min_bandwidth_quota:
            raise ConfigError(
                "max_bandwidth_quota must be >= min_bandwidth_quota")
        if self.max_queue_offset_seconds < 0:
            raise ConfigError("max_queue_offset_seconds must be >= 0")
        for name in ("upload_credit", "vote_credit", "rank_credit",
                     "delete_fake_credit"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")

    def replace(self, **changes: object) -> "ReputationConfig":
        """Return a copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def with_dimension_weights(cls, alpha: float, beta: float,
                               gamma: float) -> "ReputationConfig":
        """Convenience constructor for Eq. 7 weight sweeps."""
        return cls(alpha=alpha, beta=beta, gamma=gamma)

    @classmethod
    def file_trust_only(cls) -> "ReputationConfig":
        """A configuration that uses only the file-based dimension (FM)."""
        return cls(alpha=1.0, beta=0.0, gamma=0.0)

    @classmethod
    def volume_trust_only(cls) -> "ReputationConfig":
        """A configuration that uses only the volume-based dimension (DM)."""
        return cls(alpha=0.0, beta=1.0, gamma=0.0)

    @classmethod
    def user_trust_only(cls) -> "ReputationConfig":
        """A configuration that uses only the user-based dimension (UM)."""
        return cls(alpha=0.0, beta=0.0, gamma=1.0)


DEFAULT_CONFIG = ReputationConfig()
