"""Tests for repro.core.file_trust: Eqs. 2-3."""

import pytest

from repro.core import (EvaluationStore, ReputationConfig,
                        build_file_trust_matrix, file_trust)
from repro.core.file_trust import FileTrustAccumulator


@pytest.fixture
def store():
    store = EvaluationStore(config=ReputationConfig(eta=0.0, rho=1.0))
    # With pure-explicit weights the Eq. 1 values equal the votes, which
    # makes the Eq. 2 arithmetic in these tests exact.
    store.record_vote("a", "f1", 0.9)
    store.record_vote("a", "f2", 0.1)
    store.record_vote("b", "f1", 0.9)
    store.record_vote("b", "f2", 0.1)
    store.record_vote("c", "f1", 0.1)
    store.record_vote("c", "f2", 0.9)
    store.record_vote("d", "f9", 0.5)
    return store


@pytest.fixture
def config():
    return ReputationConfig(eta=0.0, rho=1.0)


class TestFileTrust:
    def test_identical_opinions_give_full_trust(self, store, config):
        assert file_trust(store, "a", "b", config) == pytest.approx(1.0)

    def test_opposed_opinions_give_low_trust(self, store, config):
        # |0.9-0.1| = 0.8 on both shared files -> FT = 0.2.
        assert file_trust(store, "a", "c", config) == pytest.approx(0.2)

    def test_no_shared_files_means_no_relationship(self, store, config):
        assert file_trust(store, "a", "d", config) is None

    def test_none_is_distinct_from_zero(self, config):
        # Perfectly opposed single votes give FT == 0.0, not None.
        store = EvaluationStore(config=config)
        store.record_vote("a", "f", 1.0)
        store.record_vote("b", "f", 0.0)
        assert file_trust(store, "a", "b", config) == pytest.approx(0.0)

    def test_symmetry(self, store, config):
        assert file_trust(store, "a", "c", config) == pytest.approx(
            file_trust(store, "c", "a", config))

    def test_min_overlap_enforced(self, store):
        config = ReputationConfig(eta=0.0, rho=1.0, min_overlap=3)
        assert file_trust(store, "a", "b", config) is None

    def test_alternative_metric_used(self, store):
        config = ReputationConfig(eta=0.0, rho=1.0,
                                  distance_metric="euclidean")
        value = file_trust(store, "a", "c", config)
        assert value == pytest.approx(1.0 - 0.8)  # RMS of (0.8, 0.8)


class TestFileTrustMatrix:
    def test_rows_are_normalized(self, store, config):
        matrix = build_file_trust_matrix(store, config)
        for _, row in matrix.rows():
            assert sum(row.values()) == pytest.approx(1.0)

    def test_eq3_normalization_values(self, store, config):
        matrix = build_file_trust_matrix(store, config)
        # From a's perspective: FT(a,b)=1.0, FT(a,c)=0.2.
        assert matrix.get("a", "b") == pytest.approx(1.0 / 1.2)
        assert matrix.get("a", "c") == pytest.approx(0.2 / 1.2)

    def test_isolated_user_has_no_row(self, store, config):
        matrix = build_file_trust_matrix(store, config)
        assert matrix.row("d") == {}

    def test_restricting_users(self, store, config):
        matrix = build_file_trust_matrix(store, config, users=["a", "b"])
        assert matrix.get("a", "b") == pytest.approx(1.0)
        assert not matrix.has_edge("a", "c")

    def test_empty_store_gives_empty_matrix(self, config):
        matrix = build_file_trust_matrix(EvaluationStore(config=config), config)
        assert matrix.entry_count() == 0

    def test_zero_trust_pairs_excluded(self, config):
        store = EvaluationStore(config=config)
        store.record_vote("a", "f", 1.0)
        store.record_vote("b", "f", 0.0)
        matrix = build_file_trust_matrix(store, config)
        # FT == 0 produces no edge (and would vanish in normalisation).
        assert not matrix.has_edge("a", "b")

    def test_matrix_scales_with_shared_evaluations(self, config):
        # More co-evaluated files never *create* disagreement: two users
        # agreeing on everything keep FT = 1 regardless of m.
        store = EvaluationStore(config=config)
        for index in range(10):
            store.record_vote("a", f"f{index}", 0.8)
            store.record_vote("b", f"f{index}", 0.8)
        assert file_trust(store, "a", "b", config) == pytest.approx(1.0)


class TestAccumulatorCost:
    """Eq. 2 term calls per refresh: linear in the moved evaluators.

    A vote on a file with E evaluators can change only the E - 1 pairs
    that include the voter; re-deriving all E(E-1)/2 pairs of the file is
    the quadratic path these counts keep out.
    """

    EVALUATORS = 7

    @pytest.fixture
    def populated(self, config):
        store = EvaluationStore(config=config)
        for index in range(self.EVALUATORS):
            store.record_vote(f"u{index}", "popular", 0.1 * index)
        store.record_vote("u0", "niche", 0.4)
        store.record_vote("u1", "niche", 0.6)
        store.record_vote("u2", "solo", 0.5)
        return store

    @staticmethod
    def _count_terms(accumulator):
        calls = []
        term = accumulator._term

        def counted(value_a, value_b):
            calls.append((value_a, value_b))
            return term(value_a, value_b)

        accumulator._term = counted
        return calls

    def _built(self, store, config):
        accumulator = FileTrustAccumulator(store, config)
        calls = self._count_terms(accumulator)
        accumulator.rebuild()
        store.clear_dirty()
        return accumulator, calls

    def test_rebuild_costs_one_call_per_co_evaluating_pair(self, populated,
                                                           config):
        _accumulator, calls = self._built(populated, config)
        evaluators = self.EVALUATORS
        assert len(calls) == evaluators * (evaluators - 1) // 2 + 1

    def test_changed_value_costs_one_call_per_co_evaluator(self, populated,
                                                           config):
        accumulator, calls = self._built(populated, config)
        calls.clear()
        populated.record_vote("u3", "popular", 0.95)
        accumulator.refresh()
        assert len(calls) == self.EVALUATORS - 1
        assert accumulator.matrix == build_file_trust_matrix(populated,
                                                             config)

    def test_new_evaluator_costs_one_call_per_co_evaluator(self, populated,
                                                           config):
        accumulator, calls = self._built(populated, config)
        calls.clear()
        populated.record_vote("newcomer", "popular", 0.5)
        accumulator.refresh()
        assert len(calls) == self.EVALUATORS
        assert accumulator.matrix == build_file_trust_matrix(populated,
                                                             config)

    def test_identical_rerecord_costs_nothing(self, populated, config):
        accumulator, calls = self._built(populated, config)
        calls.clear()
        populated.record_vote("u3", "popular", 0.1 * 3)
        accumulator.refresh()
        assert calls == []
        assert accumulator.matrix == build_file_trust_matrix(populated,
                                                             config)

    def test_removal_costs_nothing_and_drops_pairs(self, populated, config):
        accumulator, calls = self._built(populated, config)
        calls.clear()
        populated.remove("u1", "niche")
        populated.remove("u3", "popular")
        accumulator.refresh()
        assert calls == []
        assert accumulator.matrix == build_file_trust_matrix(populated,
                                                             config)
