"""The array form's checksum is the dict form's row walk, byte for byte.

:meth:`CsrTrustMatrix.checksum` hashes each row's entries as one slice of
a record array when every id encodes to the same number of bytes, and
walks the rows otherwise.  Either way the digest must equal the dict
form's :meth:`TrustMatrix.checksum` of the same entries: ids of one and
of mixed encoded length, non-ASCII ids, ids holding a NUL, rows that are
empty (an id seen only as a column), subnormal values, and record blocks
that end inside the matrix or hold one row longer than a block.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CsrTrustMatrix, TrustMatrix
from repro.core import matrix as matrix_module

#: Alphabets whose characters all encode to 1, 2, 3 and 4 UTF-8 bytes.
ALPHABETS = ["ab\x00~", "éßø", "€漢字", "𝄞😀"]

VALUES = st.one_of(
    st.floats(min_value=5e-324, max_value=2.2250738585072009e-308),
    st.floats(min_value=5e-324, max_value=1e300),
)


def _uniform_ids():
    """Ids that all encode to one byte length: the record-array path."""
    return st.tuples(st.sampled_from(ALPHABETS),
                     st.integers(min_value=0, max_value=3)).flatmap(
        lambda spec: st.lists(
            st.text(alphabet=spec[0], min_size=spec[1], max_size=spec[1]),
            min_size=1, max_size=8, unique=True))


def _mixed_ids():
    """Ids of any encoded length: the row walk."""
    return st.lists(st.text(alphabet="".join(ALPHABETS), max_size=3),
                    min_size=1, max_size=8, unique=True)


@st.composite
def _rows(draw, ids):
    names = draw(ids)
    rows = {}
    for i in names:
        # Some rows stay empty: those ids appear as columns only.
        for j in draw(st.lists(st.sampled_from(names), unique=True)):
            rows.setdefault(i, {})[j] = draw(VALUES)
    return rows


def _array_form(rows):
    """A :class:`CsrTrustMatrix` built from arrays, not from the dict form."""
    ids = sorted(set(rows) | {j for row in rows.values() for j in row})
    index = {node_id: b for b, node_id in enumerate(ids)}
    indptr, indices, data = [0], [], []
    for i in ids:
        row = rows.get(i, {})
        for j in sorted(row, key=index.__getitem__):
            indices.append(index[j])
            data.append(row[j])
        indptr.append(len(indices))
    return CsrTrustMatrix(ids, np.array(indptr, dtype=np.int64),
                          np.array(indices, dtype=np.int64),
                          np.array(data, dtype=np.float64))


class TestArrayChecksum:
    @given(rows=_rows(_uniform_ids()), block=st.sampled_from([1, 3, 1 << 12]))
    @settings(max_examples=200, deadline=None)
    def test_uniform_width_ids_hash_like_the_row_walk(self, rows, block):
        with mock.patch.object(matrix_module, "_CHECKSUM_BLOCK", block):
            assert (_array_form(rows).checksum()
                    == TrustMatrix(rows).checksum())

    @given(rows=_rows(_mixed_ids()))
    @settings(max_examples=200, deadline=None)
    def test_mixed_width_ids_hash_like_the_row_walk(self, rows):
        assert (_array_form(rows).checksum()
                == TrustMatrix(rows).checksum())

    def test_same_bytes_from_ids_of_different_character_counts(self):
        # "ab" and "é" both encode to two bytes.
        rows = {"ab": {"é": 5e-324, "ab": 0.25}, "é": {"ab": 1.0}}
        assert (_array_form(rows).checksum()
                == TrustMatrix(rows).checksum())

    def test_every_block_size_over_a_fixed_matrix(self):
        ids = [f"p{k}" for k in range(6)]
        rows = {i: {j: 1.0 / (1 + a + b) for b, j in enumerate(ids)
                    if (a + b) % 3 != 0}
                for a, i in enumerate(ids) if a != 2}
        expected = TrustMatrix(rows).checksum()
        for block in range(1, 40):
            with mock.patch.object(matrix_module, "_CHECKSUM_BLOCK", block):
                assert _array_form(rows).checksum() == expected, block

    def test_empty_matrix(self):
        assert (TrustMatrix().to_csr().checksum()
                == TrustMatrix().checksum())

    def test_a_changed_last_bit_changes_the_digest(self):
        rows = {"a": {"b": 0.5}, "b": {"a": 0.25}}
        nudged = {"a": {"b": np.nextafter(0.5, 1.0)}, "b": {"a": 0.25}}
        assert (_array_form(rows).checksum()
                != _array_form(nudged).checksum())
