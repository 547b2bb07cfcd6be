"""The csr × dense product in blocks of rows equals scipy's serial one.

:func:`~repro.core.matrix_backend._csr_dense_blocks` calls scipy's
``csr_matvecs`` once per block of rows, on a slice of ``indptr`` and into a
slice of one output, from several threads.  Each output row is one
sequential loop whichever block holds it, so every block count must give
the serial ``left @ right`` bit for bit.  The pool behind the threads must
not start on a one-core machine and must be remade in a forked child.
"""

import multiprocessing
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import repro.core.matrix_backend as mb

#: Values that stress the kernel's arithmetic: subnormals, products that
#: overflow to inf, and exact cancellations.
EXTREMES = (5e-324, 2.5e-310, 1e300, -1e300, 1.0, -1.0, 0.5, 0.0)
values = st.one_of(
    st.sampled_from(EXTREMES),
    st.floats(allow_nan=False, allow_infinity=False, width=64))


@st.composite
def operands(draw):
    """A csr ``left`` with sorted, duplicate-free columns and a dense
    C-ordered ``right``; ``left``'s index arrays are int32 or int64."""
    rows = draw(st.integers(0, 9))
    inner = draw(st.integers(1, 7))
    columns = draw(st.integers(0, 5))
    if rows and draw(st.booleans()):
        # Every entry in one row; the others empty.
        full = draw(st.integers(0, rows - 1))
        pattern = [sorted(draw(st.sets(st.integers(0, inner - 1))))
                   if row == full else [] for row in range(rows)]
    else:
        pattern = [sorted(draw(st.sets(st.integers(0, inner - 1))))
                   for _ in range(rows)]
    stored = sum(len(row) for row in pattern)
    index_type = draw(st.sampled_from((np.int32, np.int64)))
    indptr = np.zeros(rows + 1, dtype=index_type)
    np.cumsum([len(row) for row in pattern], out=indptr[1:])
    indices = np.array([column for row in pattern for column in row],
                       dtype=index_type)
    data = np.array(draw(st.lists(values, min_size=stored,
                                  max_size=stored)), dtype=np.float64)
    left = sparse.csr_matrix((data, indices, indptr), shape=(rows, inner))
    # scipy narrows int64 indices that fit in int32; put them back.
    left.indptr, left.indices = indptr, indices
    right = np.array(draw(st.lists(values, min_size=inner * columns,
                                   max_size=inner * columns)),
                     dtype=np.float64).reshape(inner, columns)
    return left, right


def _bits(array):
    return array.dtype, array.shape, array.view(np.int64).tolist()


@given(pair=operands())
@settings(max_examples=300, deadline=None)
def test_every_block_count_gives_the_serial_bits(pair):
    left, right = pair
    expected = _bits(np.asarray(left @ right))
    for blocks in (1, 2, 3, 4):
        assert _bits(mb._csr_dense_blocks(left, right, blocks)) == expected


@given(pair=operands(), cores=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_the_kernel_gives_the_serial_bits_on_any_core_count(pair, cores):
    left, right = pair
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mb, "_ROW_BLOCK_MIN_WORK", 0)
        patch.setattr(mb.os, "sched_getaffinity",
                      lambda pid: set(range(cores)), raising=False)
        product = mb._csr_dense_kernel(left, right)
    assert _bits(product) == _bits(np.asarray(left @ right))


def _square(size=64, density=0.3, seed=5):
    left = sparse.random(size, size, density, format="csr",
                         random_state=seed)
    left.sort_indices()
    return left, np.random.default_rng(seed).random((size, size))


@pytest.fixture
def no_pool(monkeypatch):
    """Every product runs blocked, from a state with no pool made yet."""
    monkeypatch.setattr(mb, "_ROW_BLOCK_MIN_WORK", 0)
    monkeypatch.setattr(mb, "_pool", None)
    monkeypatch.setattr(mb, "_pool_owner", (0, 0))
    return monkeypatch


def test_one_usable_core_starts_no_thread(no_pool):
    no_pool.setattr(mb.os, "sched_getaffinity", lambda pid: {0},
                    raising=False)
    left, right = _square()
    before = set(threading.enumerate())
    product = mb._csr_dense_kernel(left, right)
    assert set(threading.enumerate()) == before
    assert mb._pool is None
    assert _bits(product) == _bits(np.asarray(left @ right))


def test_a_product_under_the_cut_over_starts_no_thread(monkeypatch):
    monkeypatch.setattr(mb, "_pool", None)
    monkeypatch.setattr(mb.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    left, right = _square(size=40)
    assert left.nnz * right.shape[1] < mb._ROW_BLOCK_MIN_WORK
    before = set(threading.enumerate())
    mb._csr_dense_kernel(left, right)
    assert set(threading.enumerate()) == before
    assert mb._pool is None


def _child_product():
    left, right = _square(seed=9)
    product = mb._csr_dense_kernel(left, right)
    same = _bits(product) == _bits(np.asarray(left @ right))
    own_pool = mb._pool_owner[0] == os.getpid()
    sys.exit(0 if same and own_pool else 3)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method")
def test_a_forked_child_makes_its_own_pool(no_pool):
    no_pool.setattr(mb.os, "sched_getaffinity", lambda pid: {0, 1},
                    raising=False)
    left, right = _square()
    mb._csr_dense_kernel(left, right)
    assert mb._pool is not None and mb._pool_owner[0] == os.getpid()
    child = multiprocessing.get_context("fork").Process(
        target=_child_product)
    with warnings.catch_warnings():
        # Python 3.12+ warns about forking a process that has threads.
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child's blocked product never finished")
    assert child.exitcode == 0
