"""Pluggable matmul backends for :class:`~repro.core.matrix.TrustMatrix`.

``RM = TM^n`` (Eq. 8) is the pipeline's dominant cost once the one-step
matrices are patched incrementally.  The right algorithm depends on the
matrix: real P2P trust matrices are extremely sparse (the paper's coverage
problem), where the dict-of-dicts product wins; but the multi-dimensional
design *densifies* TM on purpose, and past ~30% density a BLAS-backed dense
product is an order of magnitude faster than hashing entry by entry.  In
between — large populations whose TM stays sparse — a compressed-sparse-row
product beats both.

This module extracts the seam:

* :class:`MatmulBackend` — the protocol (``matmul``, ``power``);
* :class:`SparseDictBackend` — the canonical dict-of-dicts implementation
  (delegates to :meth:`TrustMatrix.matmul` / :meth:`TrustMatrix.power`);
* :class:`DenseNumpyBackend` — bridges through :meth:`TrustMatrix.to_dense`
  over the sorted union of node ids and multiplies in numpy;
* :class:`CsrBackend` — scipy's CSR product; raises
  :class:`BackendUnavailableError` when scipy is not installed;
* :func:`select_backend` — the density×size heuristic behind ``"auto"``;
* :func:`resolve_backend` — maps the config/CLI spelling (``"auto"`` /
  ``"sparse"`` / ``"dense"`` / ``"csr"``) to a concrete choice.

Backends are value-deterministic: two value-equal inputs produce the same
result matrix under the same backend, regardless of dict insertion order
(the sparse product iterates in canonical order; the dense and CSR bridges
index by sorted ids).  Different backends agree to float tolerance, not
bit-for-bit — accumulation orders differ — so the ``"auto"`` decision is
a pure function of the matrix (and of whether scipy is installed).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .matrix import TrustMatrix

__all__ = [
    "MatmulBackend",
    "SparseDictBackend",
    "DenseNumpyBackend",
    "CsrBackend",
    "BackendUnavailableError",
    "SPARSE_BACKEND",
    "DENSE_BACKEND",
    "CSR_BACKEND",
    "BACKEND_SPECS",
    "DENSE_DENSITY_THRESHOLD",
    "DENSE_MIN_NODES",
    "CSR_MIN_NODES",
    "select_backend",
    "resolve_backend",
]

#: Density above which the dense product typically beats the sparse one.
DENSE_DENSITY_THRESHOLD = 0.3
#: Below this population the dict product wins regardless of density
#: (the dense bridge's conversion overhead dominates tiny matrices).
DENSE_MIN_NODES = 32
#: At or above this population a sparse matrix is worth the CSR conversion;
#: below it the dict product's zero conversion cost wins.  Deliberately
#: higher than :data:`DENSE_MIN_NODES` so the new regime cannot shift the
#: auto choice for any matrix the old two-way heuristic saw (n < 256 sparse
#: workloads keep picking ``sparse``).
CSR_MIN_NODES = 256


class MatmulBackend:
    """Protocol: how the pipeline multiplies and powers trust matrices."""

    name: str = "abstract"

    def matmul(self, left: TrustMatrix, right: TrustMatrix) -> TrustMatrix:
        raise NotImplementedError

    def power(self, matrix: TrustMatrix, n: int) -> TrustMatrix:
        raise NotImplementedError


class SparseDictBackend(MatmulBackend):
    """The canonical dict-of-dicts product (sparse-friendly, pure python)."""

    name = "sparse"

    def matmul(self, left: TrustMatrix, right: TrustMatrix) -> TrustMatrix:
        return left.matmul(right)

    def power(self, matrix: TrustMatrix, n: int) -> TrustMatrix:
        return matrix.power(n)


class DenseNumpyBackend(MatmulBackend):
    """Dense numpy product over the sorted union of both operands' ids.

    ``power(m, 1)`` returns ``m`` itself, mirroring the sparse fast path,
    so the default ``n = 1`` configuration allocates nothing.
    """

    name = "dense"

    @staticmethod
    def _ids(*matrices: TrustMatrix) -> List[str]:
        ids = set()
        for matrix in matrices:
            ids.update(matrix.node_ids())
        return sorted(ids)

    def matmul(self, left: TrustMatrix, right: TrustMatrix) -> TrustMatrix:
        ids = self._ids(left, right)
        if not ids:
            return TrustMatrix()
        dense_left, _ = left.to_dense(ids)
        dense_right, _ = right.to_dense(ids)
        return TrustMatrix.from_dense(dense_left @ dense_right, ids)

    def power(self, matrix: TrustMatrix, n: int) -> TrustMatrix:
        if n < 1:
            raise ValueError(f"matrix power requires n >= 1, got {n}")
        if n == 1:
            return matrix
        ids = self._ids(matrix)
        if not ids:
            return TrustMatrix()
        dense, _ = matrix.to_dense(ids)
        return TrustMatrix.from_dense(np.linalg.matrix_power(dense, n), ids)


class BackendUnavailableError(RuntimeError):
    """A forced matmul backend needs a library that is not installed."""


def _scipy_sparse() -> Optional[Any]:
    """The ``scipy.sparse`` module, or ``None`` when scipy is absent."""
    try:
        from scipy import sparse
    except ImportError:
        return None
    return sparse


def _require_scipy_sparse() -> Any:
    sparse = _scipy_sparse()
    if sparse is None:
        raise BackendUnavailableError(
            "the csr matmul backend needs scipy, which is not installed; "
            "use matmul_backend 'auto', 'dense' or 'sparse'")
    return sparse


class CsrBackend(MatmulBackend):
    """Compressed-sparse-row product for large sparse matrices.

    Runs through ``scipy.sparse``'s C CSR multiply, converting through the
    sorted union of node ids with column-sorted rows, so the bridge is
    canonical regardless of dict insertion order.  Without scipy every
    call raises :class:`BackendUnavailableError` (``"auto"`` never picks
    this backend then).

    ``power(m, 1)`` returns ``m`` itself (the universal fast path); larger
    powers use repeated squaring in the native representation so only the
    final product pays the conversion back to :class:`TrustMatrix`.
    """

    name = "csr"

    def matmul(self, left: TrustMatrix, right: TrustMatrix) -> TrustMatrix:
        sparse = _require_scipy_sparse()
        ids = DenseNumpyBackend._ids(left, right)
        if not ids:
            return TrustMatrix()
        product = _to_csr(left, ids, sparse) @ _to_csr(right, ids, sparse)
        return _from_csr(product, ids)

    def power(self, matrix: TrustMatrix, n: int) -> TrustMatrix:
        sparse = _require_scipy_sparse()
        if n < 1:
            raise ValueError(f"matrix power requires n >= 1, got {n}")
        if n == 1:
            return matrix
        ids = DenseNumpyBackend._ids(matrix)
        if not ids:
            return TrustMatrix()
        base = _to_csr(matrix, ids, sparse)
        result = None
        remaining = n
        while remaining:
            if remaining & 1:
                result = base if result is None else result @ base
            remaining >>= 1
            if remaining:
                base = base @ base
        assert result is not None
        return _from_csr(result, ids)


def _to_csr(matrix: TrustMatrix, ids: Sequence[str], sparse: Any) -> Any:
    """Canonical CSR over ``ids``: rows in id order, columns sorted."""
    index = {node_id: position for position, node_id in enumerate(ids)}
    indptr = [0]
    indices: List[int] = []
    data: List[float] = []
    for i in ids:
        row = matrix.row_view(i)
        # Sorted column ids land in ascending index order (ids is sorted),
        # giving scipy its canonical format without a sort_indices pass.
        for j in sorted(row):
            indices.append(index[j])
            data.append(row[j])
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.asarray(data, dtype=np.float64),
         np.asarray(indices, dtype=np.int64),
         np.asarray(indptr, dtype=np.int64)),
        shape=(len(ids), len(ids)))


def _from_csr(result: Any, ids: Sequence[str]) -> TrustMatrix:
    """CSR product back to a :class:`TrustMatrix` (positive entries only)."""
    result = result.tocsr()
    result.sum_duplicates()
    result.sort_indices()
    out = TrustMatrix()
    indptr = result.indptr
    indices = result.indices
    data = result.data
    for a, i in enumerate(ids):
        start, stop = int(indptr[a]), int(indptr[a + 1])
        if start == stop:
            continue
        cols = indices[start:stop].tolist()
        values = data[start:stop].tolist()
        out.replace_row(i, {ids[b]: value for b, value in zip(cols, values)})
    return out


SPARSE_BACKEND = SparseDictBackend()
DENSE_BACKEND = DenseNumpyBackend()
CSR_BACKEND = CsrBackend()
_FORCED_BACKENDS: Dict[str, MatmulBackend] = {
    backend.name: backend
    for backend in (SPARSE_BACKEND, DENSE_BACKEND, CSR_BACKEND)}
#: Config/CLI spellings accepted by :func:`resolve_backend`.
BACKEND_SPECS = ("auto", *_FORCED_BACKENDS)


def select_backend(matrix: TrustMatrix,
                   density_threshold: float = DENSE_DENSITY_THRESHOLD,
                   min_nodes: int = DENSE_MIN_NODES,
                   csr_min_nodes: int = CSR_MIN_NODES) -> MatmulBackend:
    """The ``"auto"`` heuristic: three regimes over density × size.

    * below ``min_nodes``: the dict product's zero conversion cost wins;
    * density ≥ ``density_threshold``: the BLAS dense product wins;
    * otherwise, at or above ``csr_min_nodes``: large-and-sparse — CSR, or
      dense when scipy is not installed;
    * otherwise sparse.

    O(entries): it scans the matrix, so the pipeline calls it only when a
    power actually runs (``n >= 2``).
    """
    ids = matrix.node_ids()
    nodes = len(ids)
    if nodes < min_nodes:
        return SPARSE_BACKEND
    if matrix.density(ids) >= density_threshold:
        return DENSE_BACKEND
    if nodes >= csr_min_nodes:
        return CSR_BACKEND if _scipy_sparse() is not None else DENSE_BACKEND
    return SPARSE_BACKEND


def resolve_backend(spec: str, matrix: TrustMatrix,
                    density_threshold: float = DENSE_DENSITY_THRESHOLD,
                    min_nodes: int = DENSE_MIN_NODES) -> MatmulBackend:
    """Map a config/CLI backend spelling to a concrete backend.

    ``"sparse"`` / ``"dense"`` / ``"csr"`` force the named backend;
    ``"auto"`` applies :func:`select_backend` to the matrix at hand.
    """
    if spec == "auto":
        return select_backend(matrix, density_threshold, min_nodes)
    forced = _FORCED_BACKENDS.get(spec)
    if forced is None:
        raise ValueError(f"unknown matmul backend {spec!r}; "
                         f"expected one of {BACKEND_SPECS}")
    return forced
