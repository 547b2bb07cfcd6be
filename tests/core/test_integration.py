"""Tests for repro.core.integration: Eq. 7."""

import pytest

from repro.core import (DownloadLedger, EvaluationStore, ReputationConfig,
                        TrustMatrix, UserTrustStore, build_one_step_matrix)

PURE_EXPLICIT = ReputationConfig(eta=0.0, rho=1.0)


def _matrix(entries):
    rows = {}
    for i, j, value in entries:
        rows.setdefault(i, {})[j] = value
    return TrustMatrix(rows)


class TestIntegrateDimensions:
    """Eq. 7 is ``TrustMatrix.weighted_sum`` over (weight, matrix) terms."""

    def test_eq7_weighted_sum(self):
        tm = TrustMatrix.weighted_sum([
            (0.5, _matrix([("a", "b", 1.0)])),
            (0.3, _matrix([("a", "b", 1.0)])),
            (0.2, _matrix([("a", "c", 1.0)])),
        ])
        assert tm.get("a", "b") == pytest.approx(0.8)
        assert tm.get("a", "c") == pytest.approx(0.2)

    def test_extension_to_more_dimensions(self):
        # "When there are more methods ... this equation can be extended
        # easily": a fourth dimension is one more (weight, matrix) term.
        tm = TrustMatrix.weighted_sum(
            (0.25, _matrix([("a", "b", 1.0)])) for _dimension in range(4))
        assert tm.get("a", "b") == pytest.approx(1.0)

    def test_negative_dimension_weight_rejected(self):
        with pytest.raises(ValueError):
            TrustMatrix.weighted_sum([(-0.5, _matrix([]))])


class TestBuildOneStepMatrix:
    @pytest.fixture
    def stores(self):
        evaluations = EvaluationStore(config=PURE_EXPLICIT)
        evaluations.record_vote("a", "f1", 0.9)
        evaluations.record_vote("b", "f1", 0.9)
        ledger = DownloadLedger()
        ledger.record_download("a", "c", "f1", 100.0)
        evaluations.record_vote("a", "f1", 0.9)  # validates the volume
        user_trust = UserTrustStore()
        user_trust.add_friend("a", "d")
        return evaluations, ledger, user_trust

    def test_combines_all_three_dimensions(self, stores):
        evaluations, ledger, user_trust = stores
        tm = build_one_step_matrix(evaluations, ledger, user_trust,
                                   PURE_EXPLICIT)
        # FM edge a->b, DM edge a->c, UM edge a->d all present.
        assert tm.get("a", "b") == pytest.approx(PURE_EXPLICIT.alpha)
        assert tm.get("a", "c") == pytest.approx(PURE_EXPLICIT.beta)
        assert tm.get("a", "d") == pytest.approx(PURE_EXPLICIT.gamma)

    def test_row_sums_bounded_by_one(self, stores):
        evaluations, ledger, user_trust = stores
        tm = build_one_step_matrix(evaluations, ledger, user_trust,
                                   PURE_EXPLICIT)
        for _, row in tm.rows():
            assert sum(row.values()) <= 1.0 + 1e-9

    def test_missing_stores_skip_dimensions(self, stores):
        evaluations, _, _ = stores
        tm = build_one_step_matrix(evaluations, None, None, PURE_EXPLICIT)
        assert tm.get("a", "b") == pytest.approx(PURE_EXPLICIT.alpha)
        assert not tm.has_edge("a", "c")
        assert not tm.has_edge("a", "d")

    def test_zero_weight_skips_dimension(self, stores):
        evaluations, ledger, user_trust = stores
        config = ReputationConfig(eta=0.0, rho=1.0,
                                  alpha=0.0, beta=0.0, gamma=1.0)
        tm = build_one_step_matrix(evaluations, ledger, user_trust, config)
        assert not tm.has_edge("a", "b")
        assert tm.get("a", "d") == pytest.approx(1.0)

    def test_everything_empty_gives_empty_matrix(self):
        tm = build_one_step_matrix(EvaluationStore(), DownloadLedger(),
                                   UserTrustStore())
        assert tm.entry_count() == 0
