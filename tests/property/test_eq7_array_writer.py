"""Eq. 7 written straight into the array form equals its dict rows, converted.

:func:`repro.core.matrix.weighted_csr` publishes TM at ``n >= 2`` without
building a row dict.  It must give exactly the arrays of
``TrustMatrix({i: TrustMatrix.weighted_row(terms, i)}).to_csr()``: the same
id list, ``indptr`` and ``indices``, and the same IEEE bytes in ``data``.
The seeded cases are the ones ``EQ7_DIGEST`` pins: subnormal entries,
quotients and products that underflow, rows absent from some terms, and
disjoint and overlapping supports.  The drawn cases splice dirty rows into
a parent, bring ids the parent lacks and empty rows out.
"""

import random
from math import fsum

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CsrTrustMatrix, TrustMatrix
from repro.core.matrix import weighted_csr
from tests.core.test_pinned_digests import _eq7_terms

IDS = [f"u{index}" for index in range(6)]


def _with_totals(terms):
    """``(weight, raw)`` terms with each raw row's ``math.fsum`` total."""
    return [(weight, raw, {i: fsum(row.values()) for i, row in raw.items()})
            for weight, raw in terms]


def _dict_rows_converted(parent_rows, terms, dirty):
    """Eq. 7's dirty rows as dicts over ``parent_rows``, converted."""
    rows = dict(parent_rows)
    for i in dirty:
        rows[i] = TrustMatrix.weighted_row(terms, i)
    return TrustMatrix(rows).to_csr()


def assert_same_arrays(actual, expected):
    assert isinstance(actual, CsrTrustMatrix)
    assert actual.ids == expected.ids
    assert np.array_equal(actual._indptr, expected._indptr)
    assert np.array_equal(actual._indices, expected._indices)
    assert np.array_equal(actual._data.view(np.int64),
                          expected._data.view(np.int64))


class TestSeededEq7Cases:
    def test_first_build_equals_dict_rows(self):
        rng = random.Random(707)
        for _ in range(400):
            ids, terms = _eq7_terms(rng)
            terms = _with_totals(terms)
            assert_same_arrays(weighted_csr(terms, ids, TrustMatrix()),
                               _dict_rows_converted({}, terms, ids))

    def test_splice_into_a_parent_equals_dict_rows(self):
        rng = random.Random(708)
        for _ in range(400):
            ids, terms = _eq7_terms(rng)
            terms = _with_totals(terms)
            parent_rows = {i: {j: 1.0 - rng.random()
                               for j in rng.sample(ids + ["a", "z"], 2)}
                           for i in ids + ["z"] if rng.random() < 0.6}
            dirty = rng.sample(ids, rng.randint(0, len(ids))) + ["z"]
            parent = TrustMatrix(parent_rows).to_csr()
            assert_same_arrays(weighted_csr(terms, dirty, parent),
                               _dict_rows_converted(parent_rows, terms,
                                                    dirty))


_values = st.one_of(
    st.floats(min_value=5e-324, max_value=1e-300),
    st.floats(min_value=1e-12, max_value=1.0),
    st.floats(min_value=1e299, max_value=1e300),
    st.sampled_from([5e-324, 1.0, 1e300]))
_weights = st.one_of(st.sampled_from([5e-324, 1e-300]),
                     st.floats(min_value=1e-6, max_value=1.0))
_raw_rows = st.dictionaries(
    st.sampled_from(IDS), st.dictionaries(st.sampled_from(IDS), _values,
                                          max_size=len(IDS)),
    max_size=len(IDS)).map(
        lambda rows: {i: row for i, row in rows.items() if row})
_terms = st.lists(st.tuples(_weights, _raw_rows), min_size=1, max_size=3)
_parent_rows = st.dictionaries(
    st.sampled_from(IDS[:4]),
    st.dictionaries(st.sampled_from(IDS[:4]),
                    st.floats(min_value=1e-3, max_value=1.0),
                    min_size=1, max_size=4),
    max_size=4)


class TestDrawnSplices:
    @given(parent_rows=_parent_rows, form=st.booleans(),
           steps=st.lists(st.tuples(_terms, st.sets(st.sampled_from(IDS))),
                          min_size=1, max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_chain_of_publishes_equals_dict_rows(self, parent_rows, form,
                                                 steps):
        """Each publish splices into the last one: the parent's ids cover
        only ``IDS[:4]``, so later ids arrive, and dirty rows that no
        term names empty out."""
        parent = TrustMatrix(parent_rows)
        if form:
            parent = parent.to_csr()
        rows = dict(parent_rows)
        for terms, dirty in steps:
            terms = _with_totals(terms)
            published = weighted_csr(terms, dirty, parent)
            expected = _dict_rows_converted(rows, terms, dirty)
            assert_same_arrays(published, expected)
            assert published == expected
            rows = {i: dict(row) for i, row in expected.rows()}
            parent = published
