"""Runtime contracts: simplex and row-stochastic invariants on live values."""

import numpy as np
import pytest

from repro.core import (DEFAULT_CONFIG, CsrTrustMatrix, EvaluationStore,
                        TrustMatrix, UserTrustStore, build_one_step_matrix,
                        compute_reputation_matrix)
from repro.lint import (ContractViolation, assert_row_stochastic,
                        assert_simplex, check_row_stochastic, check_simplex,
                        checking_invariants, contracts_enabled,
                        set_contracts_enabled)


@pytest.fixture(autouse=True)
def restore_override():
    yield
    set_contracts_enabled(None)


class TestAssertSimplex:
    def test_accepts_paper_defaults(self):
        assert_simplex((DEFAULT_CONFIG.eta, DEFAULT_CONFIG.rho))
        assert_simplex((DEFAULT_CONFIG.alpha, DEFAULT_CONFIG.beta,
                        DEFAULT_CONFIG.gamma))

    def test_rejects_off_simplex_sum(self):
        with pytest.raises(ContractViolation, match="must sum to 1"):
            assert_simplex((0.5, 0.6), name="(eta, rho)")

    def test_rejects_out_of_range_component(self):
        with pytest.raises(ContractViolation, match="outside"):
            assert_simplex((1.5, -0.5))

    def test_rejects_empty(self):
        with pytest.raises(ContractViolation, match="empty"):
            assert_simplex(())


class TestAssertRowStochastic:
    def test_accepts_normalized_trust_matrix(self):
        matrix = TrustMatrix({"a": {"b": 3.0, "c": 1.0}}).row_normalized()
        assert_row_stochastic(matrix, name="TM")

    def test_accepts_mapping_of_mappings(self):
        assert_row_stochastic({"a": {"b": 0.25, "c": 0.75}})

    def test_rejects_unnormalized_row(self):
        with pytest.raises(ContractViolation, match="row-stochastic"):
            assert_row_stochastic({"a": {"b": 0.9, "c": 0.9}})

    def test_substochastic_mode(self):
        rows = {"a": {"b": 0.3}}
        assert_row_stochastic(rows, strict=False)
        with pytest.raises(ContractViolation, match="sub-stochastic"):
            assert_row_stochastic({"a": {"b": 0.9, "c": 0.9}}, strict=False)

    def test_empty_rows_are_ignored(self):
        assert_row_stochastic({"a": {}})


def _verdict(matrix, **kwargs):
    try:
        assert_row_stochastic(matrix, **kwargs)
    except ContractViolation as violation:
        return str(violation)
    return None


class TestArrayFormRows:
    """The array form's rows, read as slices, get the dict form's verdict."""

    @pytest.mark.parametrize("rows, strict", [
        ({"a": {"b": 0.9, "c": 0.9}}, True),
        ({"a": {"b": 0.9, "c": 0.9}}, False),
        ({"a": {"b": 0.25, "c": 0.75}, "c": {"a": 0.5}}, True),
        ({"a": {"b": 0.3}}, False),
    ])
    def test_same_verdict_and_message(self, rows, strict):
        matrix = TrustMatrix(rows)
        verdict = _verdict(matrix, name="TM", strict=strict)
        assert _verdict(matrix.to_csr(), name="TM", strict=strict) == verdict
        assert _verdict(rows, name="TM", strict=strict) == verdict

    def test_violations_raise(self):
        with pytest.raises(ContractViolation, match="row-stochastic"):
            assert_row_stochastic(
                TrustMatrix({"a": {"b": 0.9, "c": 0.9}}).to_csr())
        with pytest.raises(ContractViolation, match="sub-stochastic"):
            assert_row_stochastic(
                TrustMatrix({"a": {"b": 0.9, "c": 0.9}}).to_csr(),
                strict=False)

    def test_negative_entry_in_the_arrays_raises(self):
        # The constructor does not check signs, so the contract must.
        matrix = CsrTrustMatrix(["a", "b"], np.array([0, 1, 1]),
                                np.array([1]), np.array([-0.5]))
        with pytest.raises(ContractViolation, match="negative entries"):
            assert_row_stochastic(matrix)
        assert (_verdict(matrix)
                == _verdict({"a": {"b": -0.5}}))

    def test_accepts_a_normalised_array_form(self):
        assert_row_stochastic(
            TrustMatrix({"a": {"b": 3.0, "c": 1.0}}).row_normalized()
            .to_csr())


class TestGating:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        assert not contracts_enabled()
        # No-ops on violating input when disabled.
        check_simplex((0.5, 0.9))
        check_row_stochastic({"a": {"b": 2.0}})

    def test_environment_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        assert contracts_enabled()
        with pytest.raises(ContractViolation):
            check_simplex((0.5, 0.9))

    def test_programmatic_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        set_contracts_enabled(False)
        check_simplex((0.5, 0.9))  # silenced by the override

    def test_scoped_context_manager(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        with checking_invariants():
            assert contracts_enabled()
            with pytest.raises(ContractViolation):
                check_row_stochastic({"a": {"b": 0.5, "c": 0.9}})
        assert not contracts_enabled()


class TestPipelineCallSites:
    """The core call sites uphold the contracts on real data."""

    def _stores(self):
        evaluations = EvaluationStore()
        for user, file_id in (("u1", "f1"), ("u1", "f2"),
                              ("u2", "f1"), ("u2", "f2")):
            evaluations.record_vote(user, file_id, 1.0, timestamp=0.0)
        user_trust = UserTrustStore()
        user_trust.rate("u1", "u2", 0.8)
        return evaluations, user_trust

    def test_refresh_pipeline_passes_under_contracts(self):
        evaluations, user_trust = self._stores()
        with checking_invariants():
            one_step = build_one_step_matrix(evaluations,
                                             user_trust=user_trust)
            reputation = compute_reputation_matrix(one_step, steps=2)
        assert reputation is not None

    def test_corrupted_one_step_matrix_is_caught(self):
        super_stochastic = TrustMatrix({"a": {"b": 0.8, "c": 0.8}})
        with checking_invariants():
            with pytest.raises(ContractViolation, match="TM"):
                compute_reputation_matrix(super_stochastic, steps=1)
