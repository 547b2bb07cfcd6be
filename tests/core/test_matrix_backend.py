"""Tests for repro.core.matrix_backend: the pluggable matmul seam."""

import sys

import numpy as np
import pytest

import repro.core.matrix_backend as mb
from repro.core import (CSR_BACKEND, DENSE_BACKEND, CsrBackend,
                        CsrTrustMatrix, DenseNumpyBackend, TrustMatrix,
                        resolve_backend, select_backend)
from repro.core.matrix_backend import (DENSE_DENSITY_THRESHOLD,
                                       DENSE_MIN_NODES)


def _random_stochastic(nodes: int, per_row: int, seed: int = 3) -> TrustMatrix:
    import random
    rng = random.Random(seed)
    ids = [f"n{i:03d}" for i in range(nodes)]
    rows = {}
    for i in ids:
        targets = rng.sample([j for j in ids if j != i],
                             min(per_row, nodes - 1))
        raw = {j: rng.random() for j in targets}
        total = sum(raw.values())
        rows[i] = {j: value / total for j, value in raw.items()}
    return TrustMatrix(rows)


def _matrix_with_entries(nodes: int, entries: int) -> TrustMatrix:
    """Exactly ``entries`` off-diagonal entries over exactly ``nodes`` ids.

    Fills ring offsets (i, i+shift) so every id appears from the first
    shift onward, and the off-diagonal count is *precise* — the boundary
    tests need density to land exactly on the crossover quotient.
    """
    assert nodes >= 2 and entries >= nodes
    assert entries <= nodes * (nodes - 1)
    ids = [f"n{i:03d}" for i in range(nodes)]
    rows = {}
    placed = 0
    for shift in range(1, nodes):
        for a in range(nodes):
            if placed == entries:
                return TrustMatrix(rows)
            rows.setdefault(ids[a], {})[ids[(a + shift) % nodes]] = 0.5
            placed += 1
    return TrustMatrix(rows)


def _reference_product(left: TrustMatrix, right: TrustMatrix
                       ) -> TrustMatrix:
    """``left @ right`` the textbook way: each entry's terms added in
    ``left``'s sorted column order, from 0.0 — the order the csr backend
    promises."""
    product = {}
    for i, row in left.rows():
        sums = {}
        for k in sorted(row):
            for j, value in right.row_view(k).items():
                sums[j] = sums.get(j, 0.0) + row[k] * value
        product[i] = sums
    return TrustMatrix(product)


class TestBackendEquivalence:
    def test_matmul_agrees_with_sparse(self):
        left = _random_stochastic(20, 8, seed=1)
        right = _random_stochastic(20, 8, seed=2)
        sparse = CSR_BACKEND.matmul(left, right)
        dense = DENSE_BACKEND.matmul(left, right)
        ids = sorted(set(sparse.node_ids()) | set(dense.node_ids()))
        for i in ids:
            for j in ids:
                assert dense.get(i, j) == pytest.approx(
                    sparse.get(i, j), abs=1e-12)

    def test_power_agrees_with_sparse(self):
        matrix = _random_stochastic(16, 10)
        sparse = CSR_BACKEND.power(matrix, 3)
        dense = DENSE_BACKEND.power(matrix, 3)
        for i in matrix.node_ids():
            for j in matrix.node_ids():
                assert dense.get(i, j) == pytest.approx(
                    sparse.get(i, j), abs=1e-12)

    def test_power_agrees_with_numpy(self):
        matrix = _random_stochastic(12, 6)
        ids = matrix.node_ids()
        expected = np.linalg.matrix_power(matrix.to_dense(ids)[0], 2)
        result = DENSE_BACKEND.power(matrix, 2)
        for a, i in enumerate(ids):
            for b, j in enumerate(ids):
                assert result.get(i, j) == pytest.approx(
                    expected[a, b], abs=1e-12)


class TestDensePower:
    def test_power_one_returns_same_object(self):
        matrix = _random_stochastic(8, 3)
        assert DENSE_BACKEND.power(matrix, 1) is matrix

    def test_power_below_one_rejected(self):
        with pytest.raises(ValueError):
            DENSE_BACKEND.power(TrustMatrix(), 0)

    def test_empty_matrix_power(self):
        assert DENSE_BACKEND.power(TrustMatrix(), 2) == TrustMatrix()

    def test_empty_matmul(self):
        assert DENSE_BACKEND.matmul(TrustMatrix(),
                                    TrustMatrix()) == TrustMatrix()


class TestSelection:
    def test_small_matrix_stays_sparse_even_when_dense(self):
        matrix = _random_stochastic(DENSE_MIN_NODES - 2,
                                    DENSE_MIN_NODES - 3)
        assert select_backend(matrix) is CSR_BACKEND

    def test_large_dense_matrix_selects_dense(self):
        matrix = _random_stochastic(DENSE_MIN_NODES + 8,
                                    DENSE_MIN_NODES)
        assert select_backend(matrix) is DENSE_BACKEND

    def test_large_sparse_matrix_stays_sparse(self):
        matrix = _random_stochastic(100, 3)
        assert select_backend(matrix) is CSR_BACKEND

    def test_resolve_forced_spellings(self):
        # "sparse" named the dict-of-dicts product, which gave csr's bits:
        # configs, flags and snapshots that name it get the csr backend.
        matrix = _random_stochastic(DENSE_MIN_NODES + 8, DENSE_MIN_NODES)
        assert resolve_backend("sparse", matrix) is CSR_BACKEND
        assert resolve_backend("dense", matrix) is DENSE_BACKEND
        assert mb.BACKEND_SPECS == ("auto", "sparse", "dense", "csr")

    def test_resolve_auto_delegates_to_heuristic(self):
        dense_matrix = _random_stochastic(DENSE_MIN_NODES + 8,
                                          DENSE_MIN_NODES)
        assert resolve_backend("auto", dense_matrix) is DENSE_BACKEND
        assert resolve_backend("auto", TrustMatrix()) is CSR_BACKEND

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown matmul backend"):
            resolve_backend("blas", TrustMatrix())

    def test_backend_names(self):
        assert DenseNumpyBackend().name == "dense"
        assert CsrBackend().name == "csr"


class TestCsrBackend:
    def test_matmul_agrees_with_sparse(self):
        left = _random_stochastic(24, 6, seed=5)
        right = _random_stochastic(24, 6, seed=6)
        expected = _reference_product(left, right)
        csr = CSR_BACKEND.matmul(left, right)
        assert csr == expected and expected == csr
        assert csr.checksum() == expected.checksum()

    @pytest.mark.parametrize("steps", [2, 3, 5])
    def test_power_agrees_with_sparse(self, steps):
        # Repeated squaring: TM^5 = TM^4 · TM, with TM^4 = TM^2 · TM^2.
        matrix = _random_stochastic(18, 8, seed=7)
        squares = [matrix]
        while 2 ** len(squares) <= steps:
            squares.append(_reference_product(squares[-1], squares[-1]))
        expected = None
        for bit, square in enumerate(squares):
            if steps >> bit & 1:
                expected = (square if expected is None
                            else _reference_product(expected, square))
        csr = CSR_BACKEND.power(matrix, steps)
        assert csr.checksum() == expected.checksum()

    def test_power_one_returns_same_object(self):
        matrix = _random_stochastic(8, 3)
        assert CSR_BACKEND.power(matrix, 1) is matrix

    def test_power_below_one_rejected(self):
        with pytest.raises(ValueError):
            CSR_BACKEND.power(TrustMatrix(), 0)

    def test_empty_matrix(self):
        assert CSR_BACKEND.power(TrustMatrix(), 2) == TrustMatrix()
        assert CSR_BACKEND.matmul(TrustMatrix(),
                                  TrustMatrix()) == TrustMatrix()

    def test_without_scipy_csr_raises_typed_error(self, monkeypatch):
        # The paper's n = 1 returns TM itself before scipy is imported;
        # an actual product fails loudly, naming the missing dependency.
        for name in ("scipy", "scipy.sparse"):
            monkeypatch.setitem(sys.modules, name, None)
        matrix = _random_stochastic(19, 7, seed=8)
        assert CSR_BACKEND.power(matrix, 1) is matrix
        with pytest.raises(ImportError, match="scipy"):
            CSR_BACKEND.power(matrix, 3)
        with pytest.raises(ImportError, match="scipy"):
            CsrBackend().matmul(matrix, matrix)

    def test_resolve_forced_csr(self):
        assert resolve_backend("csr", TrustMatrix()) is CSR_BACKEND


class TestSelectionBoundaries:
    """The density × size heuristic at its exact crossover points."""

    def test_zero_node_matrix_stays_sparse(self):
        assert select_backend(TrustMatrix()) is CSR_BACKEND

    def test_one_node_matrix_stays_sparse(self):
        matrix = TrustMatrix({"solo": {"solo": 1.0}})
        assert select_backend(matrix) is CSR_BACKEND

    def test_density_exactly_at_threshold_selects_dense(self):
        # 41 nodes: 0.3 * 41 * 40 = 492 entries exactly — the quotient
        # lands on the threshold and the comparison is >=, so dense.
        matrix = _matrix_with_entries(41, 492)
        assert matrix.density(matrix.node_ids()) == DENSE_DENSITY_THRESHOLD
        assert select_backend(matrix) is DENSE_BACKEND

    def test_density_one_entry_below_threshold(self):
        matrix = _matrix_with_entries(41, 491)
        assert matrix.density(matrix.node_ids()) < DENSE_DENSITY_THRESHOLD
        assert select_backend(matrix) is CSR_BACKEND

    def test_min_nodes_edge(self):
        # Same (high) density on both sides of DENSE_MIN_NODES: one node
        # fewer flips dense -> csr.
        below = _matrix_with_entries(DENSE_MIN_NODES - 1,
                                     (DENSE_MIN_NODES - 1) * 10)
        at = _matrix_with_entries(DENSE_MIN_NODES, DENSE_MIN_NODES * 10)
        assert below.density(below.node_ids()) >= DENSE_DENSITY_THRESHOLD
        assert at.density(at.node_ids()) >= DENSE_DENSITY_THRESHOLD
        assert select_backend(below) is CSR_BACKEND
        assert select_backend(at) is DENSE_BACKEND

    def test_csr_min_nodes_edge(self):
        # A sparse ring on both sides of 256 nodes, where the csr regime
        # used to begin (the dict product took sparse matrices below it):
        # csr is now the whole sparse regime.
        below = _matrix_with_entries(255, 255)
        at = _matrix_with_entries(256, 256)
        assert select_backend(below) is CSR_BACKEND
        assert select_backend(at) is CSR_BACKEND

    def test_large_dense_beats_csr_regime(self):
        # density >= threshold picks dense even for large populations.
        matrix = _matrix_with_entries(256, 256 * 255 * 3 // 10 + 256)
        assert matrix.density(matrix.node_ids()) >= DENSE_DENSITY_THRESHOLD
        assert select_backend(matrix) is DENSE_BACKEND


class TestPublishedArrayForm:
    @pytest.mark.parametrize("backend", [DENSE_BACKEND, CSR_BACKEND])
    @pytest.mark.parametrize("steps", [2, 3])
    def test_power_publishes_the_array_form(self, backend, steps):
        matrix = _random_stochastic(18, 5, seed=9)
        result = backend.power(matrix, steps)
        assert isinstance(result, CsrTrustMatrix)
        copy = TrustMatrix(dict(result.rows()))
        assert copy == result and result == copy
        assert copy.checksum() == result.checksum()

    @pytest.mark.parametrize("backend", [DENSE_BACKEND, CSR_BACKEND])
    def test_matmul_over_differing_ids(self, backend):
        # The operands' id lists differ, so each is re-indexed onto the
        # union before the product.
        left = TrustMatrix({"a": {"b": 0.5, "c": 0.5}})
        right = TrustMatrix({"b": {"d": 1.0}, "c": {"a": 0.25, "d": 0.75}})
        product = backend.matmul(left, right)
        assert product == _reference_product(left, right)
        assert product.node_ids() == ["a", "d"]


class TestCsrKernels:
    """A product with at least one term per output cell runs scipy's
    csr × dense kernel; it must equal the sparse × sparse kernel bit for
    bit."""

    @staticmethod
    def _operands(left, right):
        sparse = pytest.importorskip("scipy.sparse")
        left, right = left.to_csr(), right.to_csr()
        ids = mb._union_ids(left, right)
        return (mb._scipy_csr(left, ids, sparse),
                mb._scipy_csr(right, ids, sparse), ids)

    @pytest.mark.parametrize("per_row", [1, 2, 5, 9, 17])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_kernels_agree_bit_for_bit(self, per_row, seed):
        left = _random_stochastic(30, per_row, seed=seed)
        right = _random_stochastic(30, per_row + 3, seed=seed + 10)
        a, b, ids = self._operands(left, right)
        via_sparse = mb._publish(mb._csr_csr_kernel(a, b), ids)
        via_dense = mb._publish(mb._csr_dense_kernel(a, b), ids)
        assert via_dense == via_sparse and via_sparse == via_dense
        assert via_dense.checksum() == via_sparse.checksum()
        assert CSR_BACKEND.matmul(left, right) == via_sparse
        # A dense right operand (a ladder's csr × dense intermediate)
        # gives the same bits through either kernel.
        for kernel in (mb._csr_csr_kernel, mb._csr_dense_kernel):
            assert mb._publish(kernel(a, b.toarray()), ids) == via_sparse

    @pytest.mark.parametrize("per_row,dense", [(2, False), (8, True)])
    def test_power_takes_both_kernels(self, csr_kernels_taken, per_row,
                                      dense):
        # TM @ TM has nnz(TM) * per_row terms over 40 * 40 cells.
        matrix = _random_stochastic(40, per_row, seed=4)
        CSR_BACKEND.power(matrix, 2)
        assert csr_kernels_taken == [("_csr_dense_kernel" if dense
                                      else "_csr_csr_kernel")]


class TestWithoutScipy:
    """The dense backend and its digests need numpy alone."""

    @pytest.fixture
    def no_scipy(self, monkeypatch):
        for name in ("scipy", "scipy.sparse"):
            monkeypatch.setitem(sys.modules, name, None)

    @pytest.mark.parametrize("steps", [2, 3, 4])
    def test_dense_power_equals_the_dict_bridge(self, no_scipy, steps):
        matrix = _random_stochastic(21, 6, seed=steps)
        result = DENSE_BACKEND.power(matrix, steps)
        assert isinstance(result, CsrTrustMatrix)
        dense, ids = matrix.to_dense()
        expected = TrustMatrix({
            i: dict(zip(ids, row)) for i, row in zip(
                ids, np.linalg.matrix_power(dense, steps).tolist())})
        assert result.checksum() == expected.checksum()
        assert result == expected and expected == result
        for i in ids:
            assert result.row_max(i) == expected.row_max(i)
            for j in ids:
                assert result.get(i, j) == expected.get(i, j)

    def test_pinned_digests_pass(self, no_scipy):
        from tests.core import test_pinned_digests as pinned
        pinned.test_similarity_metrics_match_pinned_digest()
        pinned.test_row_normaliser_and_dense_bridge_match_pinned_digest()
