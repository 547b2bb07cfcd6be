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
* :class:`DenseNumpyBackend` — bridges the operands' array form to dense
  arrays over the sorted union of their ids and multiplies in numpy;
* :class:`CsrBackend` — scipy's CSR product; raises
  :class:`BackendUnavailableError` when scipy is not installed;
* :func:`select_backend` — the density×size heuristic behind ``"auto"``;
* :func:`resolve_backend` — maps the config/CLI spelling (``"auto"`` /
  ``"sparse"`` / ``"dense"`` / ``"csr"``) to a concrete choice.

Backends are value-deterministic: two value-equal inputs produce the same
result matrix under the same backend, regardless of dict insertion order
(the sparse product iterates in canonical order; the dense and CSR bridges
index by sorted ids).  The dense and CSR backends publish products as a
read-only :class:`~repro.core.matrix.CsrTrustMatrix` — canonical CSR
arrays over the sorted ids, read in place — instead of rebuilding a
dict-of-dicts; the sparse backend's products stay dicts.  Different
backends agree to float tolerance, not bit-for-bit — accumulation orders
differ — so the ``"auto"`` decision is a pure function of the matrix (and
of whether scipy is installed).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .matrix import CsrTrustMatrix, TrustMatrix

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

    Operands enter through their array form (:meth:`TrustMatrix.to_csr`)
    and products leave as a :class:`CsrTrustMatrix` built by numpy alone,
    so this backend needs no scipy.  ``power(m, 1)`` returns ``m`` itself,
    mirroring the sparse fast path, so the default ``n = 1`` configuration
    allocates nothing.
    """

    name = "dense"

    def matmul(self, left: TrustMatrix, right: TrustMatrix) -> TrustMatrix:
        ids = _union_ids(left, right)
        dense_left, _ = left.to_dense(ids)
        dense_right, _ = right.to_dense(ids)
        return CsrTrustMatrix.from_dense(dense_left @ dense_right, ids)

    def power(self, matrix: TrustMatrix, n: int) -> TrustMatrix:
        if n < 1:
            raise ValueError(f"matrix power requires n >= 1, got {n}")
        if n == 1:
            return matrix
        dense, ids = matrix.to_dense()
        return CsrTrustMatrix.from_dense(np.linalg.matrix_power(dense, n), ids)


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


def _union_ids(*matrices: TrustMatrix) -> List[str]:
    """Sorted union of the operands' array-form id lists."""
    ids = set()
    for matrix in matrices:
        ids.update(matrix.to_csr().ids)
    return sorted(ids)


class CsrBackend(MatmulBackend):
    """Compressed-sparse-row product for large sparse matrices.

    Runs through ``scipy.sparse`` on the operands' array form
    (:meth:`TrustMatrix.to_csr`: sorted ids, column-sorted rows), so the
    bridge is canonical regardless of dict insertion order.  Every product
    — intermediate powers included — is published as a canonical
    :class:`CsrTrustMatrix`; no row becomes a dict until a caller iterates
    it.  Each product picks one of scipy's two kernels (see
    :func:`_csr_product`); both add an entry's terms in the left operand's
    column order — the order :meth:`TrustMatrix.matmul` uses — so the
    choice never changes a bit of the result.
    Without scipy every call raises :class:`BackendUnavailableError`
    (``"auto"`` never picks this backend then).

    ``power(m, 1)`` returns ``m`` itself (the universal fast path); larger
    powers use repeated squaring.
    """

    name = "csr"

    def matmul(self, left: TrustMatrix, right: TrustMatrix) -> TrustMatrix:
        return _csr_product(left.to_csr(), right.to_csr(),
                            _require_scipy_sparse())

    def power(self, matrix: TrustMatrix, n: int) -> TrustMatrix:
        sparse = _require_scipy_sparse()
        if n < 1:
            raise ValueError(f"matrix power requires n >= 1, got {n}")
        if n == 1:
            return matrix
        base = matrix.to_csr()
        result = None
        remaining = n
        while remaining:
            if remaining & 1:
                result = (base if result is None
                          else _csr_product(result, base, sparse))
            remaining >>= 1
            if remaining:
                base = _csr_product(base, base, sparse)
        assert result is not None
        return result


def _csr_product(left: CsrTrustMatrix, right: CsrTrustMatrix,
                 sparse: Any) -> CsrTrustMatrix:
    """``left @ right`` through scipy, published in canonical form.

    The sparse × sparse kernel does one multiply-add per pair of stored
    entries ``(i, k)``, ``(k, j)``.  Once those terms reach one per output
    cell the product comes out mostly dense, and the kernel's scattered
    accumulation plus the sort of its unordered output cost more than
    densifying ``right`` and running the csr × dense kernel, which streams
    whole rows (n² floats for ``right`` and for the product, about what
    the mostly dense sparse product holds anyway).  Both kernels add the
    terms of entry ``(i, j)`` in ``left``'s stored order starting from
    0.0, and the dense kernel's extra terms are ``v * 0.0 = +0.0``, which
    leave a non-negative sum unchanged: the two agree bit for bit.
    """
    ids = _union_ids(left, right)
    left_csr = _scipy_csr(left, ids, sparse)
    right_csr = _scipy_csr(right, ids, sparse)
    terms = int(np.diff(right_csr.indptr)[left_csr.indices].sum())
    kernel = _csr_dense_kernel if terms >= len(ids) ** 2 else _csr_csr_kernel
    return kernel(left_csr, right_csr, ids)


def _csr_csr_kernel(left: Any, right: Any, ids: List[str]) -> CsrTrustMatrix:
    """scipy's sparse × sparse product, canonicalised."""
    product = left @ right
    # Duplicate-free, but in scipy's accumulation order within each row.
    product.sort_indices()
    return CsrTrustMatrix(ids, product.indptr, product.indices, product.data)


def _csr_dense_kernel(left: Any, right: Any, ids: List[str]
                      ) -> CsrTrustMatrix:
    """scipy's csr × dense product, compressed."""
    return CsrTrustMatrix.from_dense(left @ right.toarray(), ids)


def _scipy_csr(matrix: CsrTrustMatrix, ids: Sequence[str], sparse: Any) -> Any:
    """``matrix`` over ``ids`` as a scipy CSR matrix."""
    indptr, indices, data = matrix.over(ids)
    return sparse.csr_matrix((data, indices, indptr),
                             shape=(len(ids), len(ids)))


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

    O(entries): it reads the matrix's array form (:meth:`TrustMatrix.to_csr`,
    kept for the product that follows), so the pipeline calls it only when
    a power actually runs (``n >= 2``).
    """
    form = matrix.to_csr()
    nodes = len(form.node_ids())
    if nodes < min_nodes:
        return SPARSE_BACKEND
    if form.density() >= density_threshold:
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
