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

import os
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .matrix import CsrTrustMatrix, TrustMatrix

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

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
    bridge is canonical regardless of dict insertion order.  Each product
    picks one of scipy's two kernels (see :func:`_product`); both add an
    entry's terms in the left operand's sorted column order, so the choice
    never changes a bit of the result.  The result is published as a
    canonical :class:`CsrTrustMatrix`; no row becomes a dict until a
    caller iterates it.

    ``power(m, 1)`` returns ``m`` itself (the universal fast path) before
    scipy is imported: the default ``n = 1`` configuration never loads it.
    Larger powers use repeated squaring over ``m``'s id list, with the
    intermediate powers left in scipy's form: a csr × dense product stays
    an array and is the next product's dense operand as it is.  Only the
    final power is published.
    """

    name = "csr"

    def matmul(self, left: TrustMatrix, right: TrustMatrix) -> TrustMatrix:
        return _csr_product(left.to_csr(), right.to_csr())

    def power(self, matrix: TrustMatrix, n: int) -> TrustMatrix:
        if n < 1:
            raise ValueError(f"matrix power requires n >= 1, got {n}")
        if n == 1:
            return matrix
        from scipy import sparse

        form = matrix.to_csr()
        one_step = base = _scipy_csr(form, form.ids, sparse)
        result = None
        remaining = n
        while remaining:
            if remaining & 1:
                result = (base if result is None
                          else _ladder_product(result, base, one_step))
            remaining >>= 1
            if remaining:
                base = _ladder_product(base, base, one_step)
        return _publish(result, form.ids)


def _csr_product(left: CsrTrustMatrix, right: CsrTrustMatrix
                 ) -> CsrTrustMatrix:
    """``left @ right`` through scipy over the union of their ids.

    scipy is imported here, on the first product, not with the module:
    loading it costs about 16 MiB of resident memory, and a run at the
    paper's ``n = 1`` never multiplies.
    """
    from scipy import sparse

    ids = _union_ids(left, right)
    product = _product(_scipy_csr(left, ids, sparse),
                       _scipy_csr(right, ids, sparse), len(ids) ** 2)
    return _publish(product, ids)


def _ladder_product(left: Any, right: Any, one_step: Any) -> Any:
    """One product of :meth:`CsrBackend.power`'s squaring ladder.

    The operands are ``one_step`` (TM in scipy's form) or earlier powers,
    in scipy's form or as arrays, all over TM's id list.  The kernel rule
    counts the cells over the ids the operands hold an entry of, as the
    product over their union would: all of TM's ids when one operand is
    TM, perhaps fewer when both are powers.
    """
    if left is one_step or right is one_step:
        cells = one_step.shape[0] ** 2
    else:
        cells = int(np.count_nonzero(_held(left) | _held(right))) ** 2
    if isinstance(left, np.ndarray):
        from scipy import sparse

        left = sparse.csr_matrix(left)
    return _product(left, right, cells)


def _held(operand: Any) -> np.ndarray:
    """Which ids of a ladder operand hold an entry, as a row or column."""
    held: np.ndarray
    if isinstance(operand, np.ndarray):
        positive = operand > 0.0
        held = positive.any(axis=0) | positive.any(axis=1)
    else:
        held = np.diff(operand.indptr) > 0
        held[operand.indices] = True
    return held


def _product(left: Any, right: Any, cells: int) -> Any:
    """``left @ right`` through one of scipy's two kernels.

    ``left`` is a scipy CSR matrix with sorted columns; ``right`` one too,
    or a dense array.  The sparse × sparse kernel does one multiply-add
    per pair of stored entries ``(i, k)``, ``(k, j)``.  Once those terms
    reach one per output cell the product comes out mostly dense, and the
    kernel's scattered accumulation plus the sort of its unordered output
    cost more than densifying ``right`` and running the csr × dense
    kernel, which streams whole rows (n² floats for ``right`` and for the
    product, about what the mostly dense sparse product holds anyway).
    Both kernels add the terms of entry ``(i, j)`` in ``left``'s stored
    order starting from 0.0, and the dense kernel's extra terms are
    ``v * 0.0 = +0.0``, which leave a non-negative sum unchanged: the two
    agree bit for bit.
    """
    if isinstance(right, np.ndarray):
        counts = np.count_nonzero(right, axis=1)
    else:
        counts = np.diff(right.indptr)
    terms = int(counts[left.indices].sum())
    if terms >= cells:
        return _csr_dense_kernel(left, right)
    return _csr_csr_kernel(left, right)


def _csr_csr_kernel(left: Any, right: Any) -> Any:
    """scipy's sparse × sparse product, columns sorted."""
    if isinstance(right, np.ndarray):
        from scipy import sparse

        right = sparse.csr_matrix(right)
    product = left @ right
    # Duplicate-free, but in scipy's accumulation order within each row.
    product.sort_indices()
    return product


#: Work (``left``'s stored entries × ``right``'s columns) from which a
#: csr × dense product is split across the usable cores.  Two blocks cost
#: about 80 µs more than one product in hand-off alone; on a 2-core host
#: they broke even near 2^19 and took about 0.8× the serial time from
#: 2^20 on (a 400-node TM of 28k entries is about 2^23).
_ROW_BLOCK_MIN_WORK = 1 << 20
#: The threads that run a blocked product's later blocks, and the
#: ``(pid, threads)`` they were made for (see :func:`_row_block_pool`).
_pool: Optional[ThreadPoolExecutor] = None
_pool_owner: Tuple[int, int] = (0, 0)


def _csr_dense_kernel(left: Any, right: Any) -> np.ndarray:
    """scipy's csr × dense product, as an array.

    A product of at least :data:`_ROW_BLOCK_MIN_WORK` work runs in one
    block of rows per usable core (:func:`_csr_dense_blocks`); a smaller
    one, or any product on a one-core machine, is scipy's own serial
    ``left @ right``.  Both give the same bits.
    """
    if not isinstance(right, np.ndarray):
        right = right.toarray()
    if left.nnz * right.shape[1] >= _ROW_BLOCK_MIN_WORK:
        blocks = _usable_cores()
        if blocks > 1:
            return _csr_dense_blocks(left, right, blocks)
    return np.asarray(left @ right)


def _csr_dense_blocks(left: Any, right: Any, blocks: int) -> np.ndarray:
    """``left @ right`` in ``blocks`` blocks of rows, one thread each.

    This is what ``csr_matrix @ ndarray`` runs (scipy's
    ``_cs_matrix._matmul_multivector``): ``_sparsetools.csr_matvecs``
    into a zeroed output, here called once per block on ``indptr[lo:hi +
    1]`` with the full ``indices`` and ``data`` (its offsets are absolute,
    so nothing is copied), writing the block's rows of the one output in
    place.  Each output row is its own loop over that row's entries, in
    stored order from 0.0, whichever thread runs it, so the blocks change
    no bit.  The kernel releases the GIL; blocks hold equal numbers of
    stored entries, the first runs on the calling thread and the rest on
    :func:`_row_block_pool`.

    The private call is kept on purpose.  The public
    ``product[lo:hi] = left[lo:hi] @ right`` gives the same bits but
    copies each block's rows, and cost 3.20 -> 3.61 ms per 400-node
    product, serially, and about 10% of ``sparse-multitrust``'s
    throughput (docs/performance.md).
    ``tests/property/test_blocked_csr_kernel.py`` fails if scipy moves
    the function.
    """
    from scipy.sparse import _sparsetools

    rows, inner = left.shape
    columns = right.shape[1]
    product = np.zeros((rows, columns),
                       dtype=np.result_type(left.dtype, right.dtype))
    indptr = left.indptr
    vectors = right.ravel()
    cuts = np.searchsorted(indptr, np.arange(1, blocks)
                           * (int(indptr[-1]) / blocks)).tolist()
    bounds = [0, *cuts, rows]

    def run(lo: int, hi: int) -> None:
        _sparsetools.csr_matvecs(hi - lo, inner, columns, indptr[lo:hi + 1],
                                 left.indices, left.data, vectors,
                                 product[lo:hi].ravel())

    later = []
    if blocks > 1:
        pool = _row_block_pool(blocks - 1)
        later = [pool.submit(run, lo, hi)
                 for lo, hi in zip(bounds[1:-1], bounds[2:])]
    run(bounds[0], bounds[1])
    for block in later:
        block.result()
    return product


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _row_block_pool(threads: int) -> ThreadPoolExecutor:
    """The module's thread pool, made on first use.

    It is made again when the process id changes: a child forked after a
    blocked product inherits the pool but not its threads, and would wait
    on them forever.  ``concurrent.futures`` (and the ``logging`` it
    imports) loads here, so a process that never splits a product does
    not carry it.
    """
    from concurrent.futures import ThreadPoolExecutor

    global _pool, _pool_owner
    owner = (os.getpid(), threads)
    if _pool is None or _pool_owner != owner:
        if _pool is not None and _pool_owner[0] == owner[0]:
            _pool.shutdown(wait=False)
        _pool = ThreadPoolExecutor(threads, thread_name_prefix="csr-rows")
        _pool_owner = owner
    return _pool


def _publish(product: Any, ids: List[str]) -> CsrTrustMatrix:
    """A kernel's product over ``ids`` as a :class:`CsrTrustMatrix`."""
    if isinstance(product, np.ndarray):
        return CsrTrustMatrix.from_dense(product, ids)
    return CsrTrustMatrix(ids, product.indptr, product.indices, product.data)


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
