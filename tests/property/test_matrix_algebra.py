"""Algebraic property tests for TrustMatrix and the csr product.

The multi-trust machinery silently assumes standard linear-algebra laws of
the sparse implementation; these tests pin them down against numpy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CSR_BACKEND, TrustMatrix

IDS = [f"n{index}" for index in range(5)]


def sparse_matrices():
    entry = st.tuples(st.sampled_from(IDS), st.sampled_from(IDS),
                      st.floats(min_value=0.01, max_value=5.0))
    return st.lists(entry, max_size=15).map(_build)


def _build(entries):
    matrix = TrustMatrix()
    for i, j, value in entries:
        matrix.set(i, j, value)
    return matrix


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

    @given(a=sparse_matrices(),
           factor=st.floats(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_scaling_matches_numpy(self, a, factor):
        assert np.allclose(_dense(a.scaled(factor)),
                           factor * _dense(a), atol=1e-9)

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
        assert TrustMatrix.from_dense(dense, ids) == a
