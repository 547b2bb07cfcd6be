"""Tests for repro.core.matrix: the sparse trust matrix."""

from math import fsum

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import CSR_BACKEND, CsrTrustMatrix, TrustMatrix
from repro.core.matrix import normalize_rows


def matrices(max_nodes: int = 6):
    """Random sparse trust matrices over a small id universe."""
    ids = [f"n{i}" for i in range(max_nodes)]
    entry = st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                      st.floats(min_value=0.001, max_value=10.0))
    return st.lists(entry, max_size=20).map(_build)


def _build(entries):
    rows = {}
    for i, j, value in entries:
        rows.setdefault(i, {})[j] = value
    return TrustMatrix(rows)


class TestBasicOps:
    def test_get_default_zero(self):
        assert TrustMatrix().get("a", "b") == 0.0

    def test_set_and_get(self):
        matrix = TrustMatrix({"a": {"b": 0.5}})
        assert matrix.get("a", "b") == 0.5

    def test_setting_zero_removes_entry(self):
        matrix = TrustMatrix({"a": {"b": 0.0}, "c": {"d": 0.5, "e": -0.0}})
        assert matrix.entry_count() == 1
        assert not matrix.has_edge("a", "b")
        assert matrix.row_ids() == ["c"]
        assert matrix.row("c") == {"d": 0.5}

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            TrustMatrix({"a": {"b": -0.1}})

    def test_constructor_from_mapping(self):
        rows = {"a": {"b": 1.0, "c": 2.0}}
        matrix = TrustMatrix(rows)
        assert matrix.get("a", "c") == 2.0
        assert matrix.entry_count() == 2
        # The rows are copied: the caller's dicts stay the caller's.
        rows["a"]["b"] = 5.0
        assert matrix.get("a", "b") == 1.0

    def test_row_returns_copy(self):
        matrix = TrustMatrix({"a": {"b": 1.0}})
        row = matrix.row("a")
        row["b"] = 99.0
        assert matrix.get("a", "b") == 1.0

    def test_node_ids_union_of_rows_and_columns(self):
        matrix = TrustMatrix({"a": {"b": 1.0}})
        assert matrix.node_ids() == ["a", "b"]

    def test_equality(self):
        assert TrustMatrix({"a": {"b": 1.0}}) == TrustMatrix({"a": {"b": 1.0}})
        assert TrustMatrix({"a": {"b": 1.0}}) != TrustMatrix()


class TestRowPatching:
    def test_replace_row_normalized_drops_stale_entries(self):
        matrix = TrustMatrix({"a": {"b": 0.5, "c": 0.5}})
        patched = matrix.copy_with_rows(
            {"a": normalize_rows({"a": {"d": 2.0}}).row("a")})
        assert patched.row("a") == {"d": 1.0}
        assert matrix.row("a") == {"b": 0.5, "c": 0.5}

    def test_copy_with_rows_new_identity_shared_untouched_rows(self):
        matrix = TrustMatrix({"a": {"b": 1.0}, "c": {"d": 1.0}})
        patched = matrix.copy_with_rows({"a": {"b": 0.25, "e": 0.75}})
        assert patched is not matrix
        assert patched.get("a", "e") == 0.75
        assert matrix.get("a", "e") == 0.0
        assert patched.row_view("c") == matrix.row_view("c")

    def test_copy_with_rows_empty_patch_removes_row(self):
        matrix = TrustMatrix({"a": {"b": 1.0}, "c": {"d": 1.0}})
        patched = matrix.copy_with_rows({"a": {}})
        assert "a" not in patched.row_ids()
        assert "a" in matrix.row_ids()

    def test_copy_with_rows_keeps_earlier_snapshots(self):
        base = TrustMatrix({"a": {"b": 1.0}, "c": {"d": 1.0}})
        first = base.copy_with_rows({"a": {"b": 0.5, "c": 0.5}})
        before = {i: first.row(i) for i in first.row_ids()}
        second = first.copy_with_rows({"a": {"d": 1.0}, "c": {}})
        assert {i: first.row(i) for i in first.row_ids()} == before
        assert second.row("a") == {"d": 1.0}
        assert "c" not in second.row_ids()
        assert base.row("a") == {"b": 1.0}

    def test_weighted_row_drops_underflow_and_empties(self):
        tiny = {"a": {"b": 5e-324, "c": 0.5}, "x": {"y": 5e-324}}
        # 0.5 * 5e-324 rounds to 0.0: the entry goes, the rest stays.
        assert TrustMatrix.weighted_row([(0.5, tiny, {})], "a") == {"c": 0.25}
        # Every product underflows: the row is empty, and publishing it
        # removes the row.
        assert TrustMatrix.weighted_row([(0.5, tiny, {})], "x") == {}
        patched = TrustMatrix({"x": {"y": 1.0}}).copy_with_rows(
            {"x": TrustMatrix.weighted_row([(0.5, tiny, {})], "x")})
        assert patched.row_ids() == []
        assert TrustMatrix.weighted_row([(0.5, tiny, {})], "absent") == {}

    def test_weighted_row_is_a_new_dict(self):
        # The published row is adopted by copy_with_rows, so it must never
        # alias a dimension's own row.
        fm = {"a": {"b": 1.0}}
        row = TrustMatrix.weighted_row([(1.0, fm, {}), (0.5, {}, {})], "a")
        row["b"] = 9.0
        assert fm["a"]["b"] == 1.0

    def test_weighted_row_adds_terms_in_order(self):
        first = {"a": {"b": 0.1, "c": 0.9}}
        second = {"a": {"d": 0.3, "b": 0.7}}
        row = TrustMatrix.weighted_row([(0.3, first, {}), (0.7, second, {})],
                                       "a")
        assert list(row) == ["b", "c", "d"]
        assert row["b"] == (0.0 + 0.3 * 0.1) + 0.7 * 0.7
        assert row["d"] == 0.0 + 0.7 * 0.3

    def test_weighted_row_from_raw_rows_equals_normalising_first(self):
        raw = {"a": {"b": 3.0, "c": 1e-7, "d": 0.25}}
        total = fsum(raw["a"].values())
        fused = TrustMatrix.weighted_row([(0.3, raw, {"a": total})], "a")
        assert fused == TrustMatrix.weighted_row(
            [(0.3, dict(normalize_rows(raw).rows()), {})], "a")
        assert fused["c"] == 0.3 * (1e-7 / total)

    def test_weighted_row_underflowed_quotient_takes_no_key_position(self):
        # 5e-324 / 1e300 underflows: the normaliser drops "b", so when the
        # second term adds "b" it lands after "d", and the fused row must
        # put it there too.
        first = {"a": {"b": 5e-324, "c": 1e300}}
        second = {"a": {"d": 0.5, "b": 0.5}}
        normalized = dict(normalize_rows(first).rows())
        assert list(normalized["a"]) == ["c"]
        totals = {"a": fsum(first["a"].values())}
        fused = TrustMatrix.weighted_row(
            [(0.5, first, totals), (0.5, second, {})], "a")
        expected = TrustMatrix.weighted_row(
            [(0.5, normalized, {}), (0.5, second, {})], "a")
        assert list(fused) == list(expected) == ["c", "d", "b"]
        assert fused == expected
        assert fused["b"] == 0.5 * 0.5

    def test_weighted_row_every_quotient_underflows(self):
        # No key survives the division, so the row is absent from TM.
        raw = {"x": {"y": 5e-324, "z": 5e-324}}
        row = TrustMatrix.weighted_row([(0.5, raw, {"x": 1e300})], "x")
        assert row == {}
        patched = TrustMatrix({"x": {"y": 1.0}}).copy_with_rows({"x": row})
        assert patched.row_ids() == []

    def test_replace_row_normalized_drops_underflow(self):
        matrix = normalize_rows({"a": {"b": 5e-324, "c": 1e300}})
        assert matrix.row("a") == {"c": 1.0}

    def test_replace_row_normalized_removes_empty_row(self):
        matrix = normalize_rows({"a": {}, "c": {"d": 0.0}})
        assert matrix.row_ids() == []


class TestNormalization:
    def test_rows_sum_to_one(self):
        matrix = TrustMatrix({"a": {"b": 2.0, "c": 6.0}})
        normalized = matrix.row_normalized()
        assert normalized.get("a", "b") == pytest.approx(0.25)
        assert normalized.get("a", "c") == pytest.approx(0.75)

    def test_normalization_is_eq3_shape(self):
        # Eq. 3: FM_ij = FT_ij / sum_k FT_ik.
        matrix = TrustMatrix({"i": {"j": 0.8, "k": 0.2}})
        normalized = matrix.row_normalized()
        assert sum(normalized.row("i").values()) == pytest.approx(1.0)

    def test_original_unchanged(self):
        matrix = TrustMatrix({"a": {"b": 2.0}})
        matrix.row_normalized()
        assert matrix.get("a", "b") == 2.0

    @given(matrix=matrices())
    def test_all_nonempty_rows_stochastic(self, matrix):
        normalized = matrix.row_normalized()
        for _, row in normalized.rows():
            assert sum(row.values()) == pytest.approx(1.0)


class TestWeightedSum:
    def test_eq7_combination(self):
        fm = TrustMatrix({"a": {"b": 1.0}})
        dm = TrustMatrix({"a": {"c": 1.0}})
        um = TrustMatrix({"a": {"b": 1.0}})
        tm = TrustMatrix.weighted_sum([(0.5, fm), (0.3, dm), (0.2, um)])
        assert tm.get("a", "b") == pytest.approx(0.7)
        assert tm.get("a", "c") == pytest.approx(0.3)

    def test_zero_weight_contributes_nothing(self):
        fm = TrustMatrix({"a": {"b": 1.0}})
        tm = TrustMatrix.weighted_sum([(0.0, fm)])
        assert tm.entry_count() == 0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            TrustMatrix.weighted_sum([(-0.5, TrustMatrix())])

    @given(matrix=matrices())
    def test_weighted_sum_of_stochastic_stays_stochastic(self, matrix):
        normalized = matrix.row_normalized()
        combined = TrustMatrix.weighted_sum(
            [(0.6, normalized), (0.4, normalized)])
        for _, row in combined.rows():
            assert sum(row.values()) == pytest.approx(1.0)


class TestMatmulAndPower:
    def test_two_step_path(self):
        matrix = TrustMatrix({"a": {"b": 1.0}, "b": {"c": 1.0}})
        squared = CSR_BACKEND.matmul(matrix, matrix)
        assert squared.get("a", "c") == pytest.approx(1.0)
        assert not squared.has_edge("a", "b")

    def test_power_one_is_identity_operation(self):
        matrix = TrustMatrix({"a": {"b": 0.7}})
        assert CSR_BACKEND.power(matrix, 1) == matrix

    def test_power_matches_repeated_matmul(self):
        matrix = TrustMatrix(
            {"a": {"b": 0.5, "c": 0.5}, "b": {"a": 1.0}, "c": {"b": 1.0}})
        manual = CSR_BACKEND.matmul(CSR_BACKEND.matmul(matrix, matrix),
                                    matrix)
        assert CSR_BACKEND.power(matrix, 3) == manual

    def test_power_zero_rejected(self):
        with pytest.raises(ValueError):
            CSR_BACKEND.power(TrustMatrix(), 0)

    @given(matrix=matrices(max_nodes=4), n=st.integers(min_value=1, max_value=4))
    def test_power_agrees_with_numpy(self, matrix, n):
        ids = matrix.node_ids()
        if not ids:
            return
        dense, _ = matrix.to_dense(ids)
        expected = np.linalg.matrix_power(dense, n)
        result, _ = CSR_BACKEND.power(matrix, n).to_dense(ids)
        assert np.allclose(result, expected, atol=1e-9)

    @given(matrix=matrices())
    def test_stochastic_rows_stay_substochastic_under_power(self, matrix):
        # RM = TM^n: probability mass can leak to absorbing nodes (rows
        # without outgoing edges) but never exceed 1.
        normalized = matrix.row_normalized()
        powered = CSR_BACKEND.power(normalized, 2)
        for _, row in powered.rows():
            assert sum(row.values()) <= 1.0 + 1e-9


class TestDensity:
    def test_empty_matrix_density_zero(self):
        assert TrustMatrix().density() == 0.0

    def test_full_two_node_density(self):
        matrix = TrustMatrix({"a": {"b": 1.0}, "b": {"a": 1.0}})
        assert matrix.density() == pytest.approx(1.0)

    def test_density_over_fixed_universe(self):
        matrix = TrustMatrix({"a": {"b": 1.0}})
        # Universe of 3 nodes: 6 possible edges, 1 present.
        assert matrix.density(["a", "b", "c"]) == pytest.approx(1 / 6)

    def test_diagonal_not_counted(self):
        matrix = TrustMatrix({"a": {"a": 1.0, "b": 1.0}, "b": {"a": 1.0}})
        assert matrix.density(["a", "b"]) == pytest.approx(1.0)


class TestDenseBridge:
    def test_round_trip(self):
        matrix = TrustMatrix({"a": {"b": 0.25}, "b": {"a": 0.75}})
        dense, ids = matrix.to_dense()
        restored = CsrTrustMatrix.from_dense(dense, ids)
        assert restored == matrix

    def test_to_dense_respects_id_order(self):
        matrix = TrustMatrix({"x": {"y": 1.0}})
        dense, ids = matrix.to_dense(["y", "x"])
        assert ids == ["y", "x"]
        assert dense[1, 0] == 1.0

    def test_from_dense_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CsrTrustMatrix.from_dense(np.zeros((2, 2)), ["a"])


class TestArrayForm:
    """``CsrTrustMatrix`` reads like the dict form of the same entries."""

    @given(matrices())
    def test_to_csr_is_equal_both_ways_with_the_same_reads(self, matrix):
        form = matrix.to_csr()
        assert form == matrix and matrix == form
        assert form.checksum() == matrix.checksum()
        assert form.entry_count() == matrix.entry_count()
        assert form.node_ids() == matrix.node_ids()
        assert form.row_ids() == sorted(matrix.row_ids())
        assert form.density() == matrix.density()
        ids = [f"n{i}" for i in range(7)]
        for i in ids:
            assert form.row(i) == matrix.row(i)
            assert form.row_max(i) == matrix.row_max(i)
            for j in ids:
                assert form.get(i, j) == matrix.get(i, j)
        assert dict(form.rows()) == dict(matrix.rows())
        assert TrustMatrix(dict(form.rows())) == form

    @pytest.mark.parametrize("value", [-0.5, 0.0, -0.0, float("nan"),
                                       float("-inf")])
    def test_a_non_positive_or_nan_entry_is_rejected(self, value):
        with pytest.raises(ValueError, match="must be > 0"):
            CsrTrustMatrix(["a", "b"], [0, 1, 1], [1], [value])
        with pytest.raises(ValueError, match="must be > 0"):
            CsrTrustMatrix(["a", "b"], [0, 2, 2], [0, 1], [0.5, value])

    def test_no_entries_pass_the_sign_check(self):
        empty = CsrTrustMatrix(["a", "b"], [0, 0, 0], [], [])
        assert empty.entry_count() == 0 and empty.node_ids() == []

    @given(matrices(), matrices())
    def test_equality_follows_values(self, left, right):
        assert (left.to_csr() == right) == (left == right)
        assert (left == right.to_csr()) == (left == right)

    def test_full_and_sparse_rows(self):
        ids = ["a", "b", "c"]
        form = CsrTrustMatrix.from_dense(
            np.array([[0.5, 0.25, 0.25], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
            ids)
        assert [form.get("a", j) for j in ids] == [0.5, 0.25, 0.25]
        assert [form.get("b", j) for j in ids] == [0.0, 0.0, 1.0]
        assert form.get("c", "a") == form.get("x", "a") == 0.0
        assert form.row_max("a") == 0.5 and form.row_max("c") == 0.0
        assert form.row_ids() == ["a", "b"]
        assert form.node_ids() == ["a", "b", "c"]

    def test_non_positive_entries_are_dropped(self):
        form = CsrTrustMatrix.from_dense(
            np.array([[0.0, -1.0], [2.0, 0.0]]), ["a", "b"])
        assert form.entry_count() == 1
        assert form == TrustMatrix({"b": {"a": 2.0}})

    def test_ids_must_be_sorted(self):
        with pytest.raises(ValueError):
            CsrTrustMatrix.from_dense(np.eye(2), ["b", "a"])

    def test_read_only(self):
        # Neither form has a mutator: a matrix is a value.
        matrix = TrustMatrix({"a": {"b": 1.0}, "b": {"a": 1.0}})
        for value in (matrix, matrix.to_csr()):
            for name in ("set", "add", "replace_row",
                         "replace_row_normalized", "scaled"):
                with pytest.raises(AttributeError):
                    getattr(value, name)

    def test_to_csr_is_kept_until_a_mutation(self):
        # No method changes a matrix: it keeps its form for good, and a
        # copy gets its own.
        matrix = TrustMatrix({"a": {"b": 1.0}})
        form = matrix.to_csr()
        assert matrix.to_csr() is form
        copy = matrix.copy_with_rows({"b": {"a": 0.5}})
        assert copy.to_csr() is not form
        assert copy.to_csr() == copy
        assert matrix.to_csr() is form and form == matrix

    def test_dict_algebra_on_the_array_form(self):
        matrix = TrustMatrix({"a": {"b": 0.5, "c": 0.5}, "b": {"c": 1.0},
                              "c": {"a": 1.0}})
        form = matrix.to_csr()
        assert form.to_dense()[0].tolist() == matrix.to_dense()[0].tolist()
        assert form.to_dense(["c", "a"])[0].tolist() == \
            matrix.to_dense(["c", "a"])[0].tolist()
        assert form.density(["a", "b"]) == matrix.density(["a", "b"])
