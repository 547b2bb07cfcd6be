"""Algebraic property tests for TrustMatrix and the csr product.

The multi-trust machinery silently assumes standard linear-algebra laws of
the sparse implementation; these tests pin them down against numpy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CSR_BACKEND, CsrTrustMatrix, TrustMatrix

IDS = [f"n{index}" for index in range(5)]


def sparse_matrices():
    entry = st.tuples(st.sampled_from(IDS), st.sampled_from(IDS),
                      st.floats(min_value=0.01, max_value=5.0))
    return st.lists(entry, max_size=15).map(_build)


def _build(entries):
    rows = {}
    for i, j, value in entries:
        rows.setdefault(i, {})[j] = value
    return TrustMatrix(rows)


def _dense(matrix):
    array, _ = matrix.to_dense(IDS)
    return array


class TestAlgebraicLaws:
    @given(a=sparse_matrices(), b=sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_matmul_matches_numpy(self, a, b):
        product = CSR_BACKEND.matmul(a, b)
        assert np.allclose(_dense(product), _dense(a) @ _dense(b), atol=1e-9)

    @given(a=sparse_matrices(), b=sparse_matrices(), c=sparse_matrices())
    @settings(max_examples=40, deadline=None)
    def test_matmul_associative(self, a, b, c):
        left = CSR_BACKEND.matmul(CSR_BACKEND.matmul(a, b), c)
        right = CSR_BACKEND.matmul(a, CSR_BACKEND.matmul(b, c))
        assert np.allclose(_dense(left), _dense(right), atol=1e-6)

    @given(a=sparse_matrices(), b=sparse_matrices(),
           w1=st.floats(min_value=0, max_value=1),
           w2=st.floats(min_value=0, max_value=1))
    @settings(max_examples=60, deadline=None)
    def test_weighted_sum_linear(self, a, b, w1, w2):
        combined = TrustMatrix.weighted_sum([(w1, a), (w2, b)])
        assert np.allclose(_dense(combined),
                           w1 * _dense(a) + w2 * _dense(b), atol=1e-9)

    @given(a=sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_normalization_idempotent(self, a):
        once = a.row_normalized()
        twice = once.row_normalized()
        assert np.allclose(_dense(once), _dense(twice), atol=1e-9)

    @given(a=sparse_matrices(), n=st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_power_via_binary_exponentiation(self, a, n):
        expected = np.linalg.matrix_power(_dense(a), n)
        assert np.allclose(_dense(CSR_BACKEND.power(a, n)), expected,
                           atol=1e-6)

    @given(a=sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_through_dense(self, a):
        dense, ids = a.to_dense(IDS)
        assert CsrTrustMatrix.from_dense(dense, ids) == a


#: Row and column ids of copy-on-write chains: the starting matrices use
#: ``IDS``, so the last two are always new to a parent's array form.
POOL = IDS + ["n5", "n6"]


def row_updates():
    """``copy_with_rows`` arguments: an empty row removes the row."""
    row = st.dictionaries(st.sampled_from(POOL),
                          st.floats(min_value=0.01, max_value=5.0),
                          max_size=4)
    return st.dictionaries(st.sampled_from(POOL), row, max_size=4)


def chain_steps():
    """Per step: the updates, and whether the array form is built before
    the copy."""
    return st.lists(st.tuples(row_updates(), st.booleans()),
                    min_size=1, max_size=6)


def _assert_same_array_form(matrix):
    """``matrix.to_csr()`` equals the conversion of its rows from scratch."""
    form = matrix.to_csr()
    scratch = TrustMatrix(dict(matrix.rows())).to_csr()
    assert form.ids == scratch.ids
    for mine, theirs in ((form._indptr, scratch._indptr),
                         (form._indices, scratch._indices),
                         (form._data, scratch._data)):
        assert np.array_equal(mine, theirs)
    assert form._data.dtype == scratch._data.dtype


class TestPatchedArrayForm:
    """The array form of a ``copy_with_rows`` copy must equal a conversion
    from scratch, bit for bit, after any chain of copies, whether or not
    a parent held its own form, and no copy changes a matrix made before
    it."""

    @given(start=sparse_matrices(),
           parent=st.sampled_from(("dict", "formed", "csr")),
           steps=chain_steps())
    @settings(max_examples=300, deadline=None)
    def test_chain_equals_conversion_from_scratch(self, start, parent, steps):
        matrix = start
        if parent == "formed":
            matrix.to_csr()
        elif parent == "csr":
            matrix = matrix.to_csr()
        chain = [(matrix, dict(matrix.rows()))]
        for updates, build_form in steps:
            if build_form:
                _assert_same_array_form(matrix)
            matrix = matrix.copy_with_rows(updates)
            chain.append((matrix, dict(matrix.rows())))
        for matrix, rows in chain:
            assert matrix == TrustMatrix(rows)
            _assert_same_array_form(matrix)
