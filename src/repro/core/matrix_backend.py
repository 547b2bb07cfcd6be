"""Pluggable matmul backends for :class:`~repro.core.matrix.TrustMatrix`.

``RM = TM^n`` (Eq. 8) is the pipeline's dominant cost once the one-step
matrices are patched incrementally.  The right algorithm depends on the
matrix: real P2P trust matrices are extremely sparse (the paper's coverage
problem), where a compressed-sparse-row product wins; but the
multi-dimensional design *densifies* TM on purpose, and past ~30% density
a BLAS-backed dense product is faster.

This module extracts the seam:

* :class:`MatmulBackend` — the protocol (``matmul``, ``power``);
* :class:`DenseNumpyBackend` — bridges the operands' array form to dense
  arrays over the sorted union of their ids and multiplies in numpy;
* :class:`CsrBackend` — scipy's CSR product, the one sparse product;
* :func:`select_backend` — the density×size heuristic behind ``"auto"``;
* :func:`resolve_backend` — maps the config/CLI spelling (``"auto"`` /
  ``"sparse"`` / ``"dense"`` / ``"csr"``) to a concrete choice;
  ``"sparse"`` is the older name of ``"csr"``.

Backends are value-deterministic: two value-equal inputs produce the same
result matrix under the same backend, regardless of dict insertion order
(both bridges index by sorted ids).  Both publish products as a read-only
:class:`~repro.core.matrix.CsrTrustMatrix` — canonical CSR arrays over the
sorted ids, read in place — instead of rebuilding a dict-of-dicts.  The
csr product adds each entry's terms in the left operand's sorted column
order, from 0.0; BLAS sums in its own order, so the dense and csr backends
agree to float tolerance, not bit for bit, and the ``"auto"`` decision is
a pure function of the matrix.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

from .matrix import CsrTrustMatrix, TrustMatrix

__all__ = [
    "MatmulBackend",
    "DenseNumpyBackend",
    "CsrBackend",
    "DENSE_BACKEND",
    "CSR_BACKEND",
    "BACKEND_SPECS",
    "DENSE_DENSITY_THRESHOLD",
    "DENSE_MIN_NODES",
    "select_backend",
    "resolve_backend",
]

#: Density above which the dense product typically beats the sparse one.
DENSE_DENSITY_THRESHOLD = 0.3
#: Below this population the sparse product wins regardless of density
#: (the dense bridge's conversion overhead dominates tiny matrices).
DENSE_MIN_NODES = 32


class MatmulBackend:
    """Protocol: how the pipeline multiplies and powers trust matrices."""

    name: str = "abstract"

    def matmul(self, left: TrustMatrix, right: TrustMatrix) -> TrustMatrix:
        raise NotImplementedError

    def power(self, matrix: TrustMatrix, n: int) -> TrustMatrix:
        raise NotImplementedError


class DenseNumpyBackend(MatmulBackend):
    """Dense numpy product over the sorted union of both operands' ids.

    Operands enter through their array form (:meth:`TrustMatrix.to_csr`)
    and products leave as a :class:`CsrTrustMatrix` built by numpy alone,
    so this backend needs no scipy.  ``power(m, 1)`` returns ``m`` itself,
    as the csr backend does, so the default ``n = 1`` configuration
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


def _union_ids(*matrices: TrustMatrix) -> List[str]:
    """Sorted union of the operands' array-form id lists."""
    ids = set()
    for matrix in matrices:
        ids.update(matrix.to_csr().ids)
    return sorted(ids)


class CsrBackend(MatmulBackend):
    """Compressed-sparse-row product: the one sparse product.

    Runs through ``scipy.sparse`` on the operands' array form
    (:meth:`TrustMatrix.to_csr`: sorted ids, column-sorted rows), so the
    bridge is canonical regardless of dict insertion order.  Every product
    — intermediate powers included — is published as a canonical
    :class:`CsrTrustMatrix`; no row becomes a dict until a caller iterates
    it.  Each product picks one of scipy's two kernels (see
    :func:`_csr_product`); both add an entry's terms in the left operand's
    sorted column order, so the choice never changes a bit of the result.

    ``power(m, 1)`` returns ``m`` itself (the universal fast path) before
    scipy is imported: the default ``n = 1`` configuration never loads it.
    Larger powers use repeated squaring.
    """

    name = "csr"

    def matmul(self, left: TrustMatrix, right: TrustMatrix) -> TrustMatrix:
        return _csr_product(left.to_csr(), right.to_csr())

    def power(self, matrix: TrustMatrix, n: int) -> TrustMatrix:
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
                          else _csr_product(result, base))
            remaining >>= 1
            if remaining:
                base = _csr_product(base, base)
        assert result is not None
        return result


def _csr_product(left: CsrTrustMatrix, right: CsrTrustMatrix
                 ) -> CsrTrustMatrix:
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

    scipy is imported here, on the first product, not with the module:
    loading it costs about 16 MiB of resident memory, and a run at the
    paper's ``n = 1`` never multiplies.
    """
    from scipy import sparse

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


DENSE_BACKEND = DenseNumpyBackend()
CSR_BACKEND = CsrBackend()
#: ``"sparse"`` named the dict-of-dicts product, which gave the csr
#: backend's bits; configs, CLI flags and snapshots that name it still load.
_FORCED_BACKENDS: Dict[str, MatmulBackend] = {
    "sparse": CSR_BACKEND, "dense": DENSE_BACKEND, "csr": CSR_BACKEND}
#: Config/CLI spellings accepted by :func:`resolve_backend`.
BACKEND_SPECS = ("auto", *_FORCED_BACKENDS)

#: Not a backend.  perfbench's probes (``perfbench/tracing.py``) import
#: this name and time the ``power``/``matmul`` defined in its class body;
#: no backend calls the protocol's methods, so those probes count nothing.
#: Bound to the csr backend instead, they would wrap its methods twice.
SparseDictBackend = MatmulBackend


def select_backend(matrix: TrustMatrix) -> MatmulBackend:
    """The ``"auto"`` heuristic: two regimes over density × size.

    * at least :data:`DENSE_MIN_NODES` nodes and density at least
      :data:`DENSE_DENSITY_THRESHOLD`: the BLAS dense product wins;
    * otherwise csr.

    O(entries): it reads the matrix's array form (:meth:`TrustMatrix.to_csr`,
    kept for the product that follows), so the pipeline calls it only when
    a power actually runs (``n >= 2``).
    """
    form = matrix.to_csr()
    if (len(form.node_ids()) >= DENSE_MIN_NODES
            and form.density() >= DENSE_DENSITY_THRESHOLD):
        return DENSE_BACKEND
    return CSR_BACKEND


def resolve_backend(spec: str, matrix: TrustMatrix) -> MatmulBackend:
    """Map a config/CLI backend spelling to a concrete backend.

    ``"dense"`` and ``"csr"`` (or its older name ``"sparse"``) force that
    backend; ``"auto"`` applies :func:`select_backend` to the matrix.
    """
    if spec == "auto":
        return select_backend(matrix)
    forced = _FORCED_BACKENDS.get(spec)
    if forced is None:
        raise ValueError(f"unknown matmul backend {spec!r}; "
                         f"expected one of {BACKEND_SPECS}")
    return forced
