"""Tests for repro.core.config: paper-invariant validation."""

import dataclasses

import pytest

from repro.core import ConfigError, ReputationConfig
from repro.core.config import DEFAULT_CONFIG


class TestDefaults:
    def test_default_config_is_valid(self):
        config = ReputationConfig()
        assert config.eta + config.rho == pytest.approx(1.0)
        assert config.alpha + config.beta + config.gamma == pytest.approx(1.0)

    def test_default_constant_matches_constructor(self):
        assert DEFAULT_CONFIG == ReputationConfig()

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CONFIG.eta = 0.5  # type: ignore[misc]

    def test_default_multitrust_steps_is_one(self):
        # Section 3.2: "We can choose n as 1 in Maze".
        assert DEFAULT_CONFIG.multitrust_steps == 1

    def test_default_distance_is_l1(self):
        # Eq. 2 uses the L1 distance; alternatives are footnote material.
        assert DEFAULT_CONFIG.distance_metric == "l1"


class TestEq1Weights:
    def test_eta_rho_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="eta \\+ rho"):
            ReputationConfig(eta=0.5, rho=0.6)

    def test_eta_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            ReputationConfig(eta=1.2, rho=-0.2)

    def test_pure_implicit_allowed(self):
        config = ReputationConfig(eta=1.0, rho=0.0)
        assert config.eta == 1.0

    def test_pure_explicit_allowed(self):
        config = ReputationConfig(eta=0.0, rho=1.0)
        assert config.rho == 1.0


class TestEq7Weights:
    def test_dimension_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="alpha \\+ beta \\+ gamma"):
            ReputationConfig(alpha=0.5, beta=0.5, gamma=0.5)

    def test_with_dimension_weights_constructor(self):
        config = ReputationConfig.with_dimension_weights(0.2, 0.3, 0.5)
        assert (config.alpha, config.beta, config.gamma) == (0.2, 0.3, 0.5)

    def test_file_trust_only(self):
        config = ReputationConfig.file_trust_only()
        assert config.alpha == 1.0
        assert config.beta == config.gamma == 0.0

    def test_volume_trust_only(self):
        config = ReputationConfig.volume_trust_only()
        assert config.beta == 1.0

    def test_user_trust_only(self):
        config = ReputationConfig.user_trust_only()
        assert config.gamma == 1.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            ReputationConfig(alpha=-0.1, beta=0.6, gamma=0.5)


class TestOtherKnobs:
    def test_multitrust_steps_below_one_rejected(self):
        with pytest.raises(ConfigError, match="multitrust_steps"):
            ReputationConfig(multitrust_steps=0)

    def test_unknown_distance_metric_rejected(self):
        with pytest.raises(ConfigError, match="distance_metric"):
            ReputationConfig(distance_metric="cosine")

    def test_known_distance_metrics_accepted(self):
        for name in ("l1", "euclidean", "kl"):
            assert ReputationConfig(distance_metric=name).distance_metric == name

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            ReputationConfig(fake_file_threshold=1.5)

    def test_nonpositive_saturation_rejected(self):
        with pytest.raises(ConfigError, match="retention_saturation"):
            ReputationConfig(retention_saturation_seconds=0.0)

    def test_nonpositive_retention_interval_rejected(self):
        with pytest.raises(ConfigError, match="evaluation_retention_interval"):
            ReputationConfig(evaluation_retention_interval=-1.0)

    def test_min_overlap_below_one_rejected(self):
        with pytest.raises(ConfigError, match="min_overlap"):
            ReputationConfig(min_overlap=0)

    def test_quota_ordering_enforced(self):
        with pytest.raises(ConfigError, match="max_bandwidth_quota"):
            ReputationConfig(min_bandwidth_quota=100.0,
                             max_bandwidth_quota=50.0)

    def test_negative_queue_offset_rejected(self):
        with pytest.raises(ConfigError, match="max_queue_offset_seconds"):
            ReputationConfig(max_queue_offset_seconds=-1.0)

    def test_negative_credit_rejected(self):
        with pytest.raises(ConfigError, match="vote_credit"):
            ReputationConfig(vote_credit=-0.1)

    def test_default_matmul_backend_is_auto(self):
        assert ReputationConfig().matmul_backend == "auto"

    def test_known_matmul_backends_accepted(self):
        for spec in ("auto", "sparse", "dense", "csr"):
            assert ReputationConfig(matmul_backend=spec).matmul_backend \
                == spec

    def test_unknown_matmul_backend_rejected(self):
        with pytest.raises(ConfigError, match="matmul_backend"):
            ReputationConfig(matmul_backend="blas")


class TestReplace:
    def test_replace_returns_new_validated_config(self):
        config = DEFAULT_CONFIG.replace(multitrust_steps=3)
        assert config.multitrust_steps == 3
        assert DEFAULT_CONFIG.multitrust_steps == 1

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError):
            DEFAULT_CONFIG.replace(eta=0.9)  # rho stays 0.6 -> sum != 1
