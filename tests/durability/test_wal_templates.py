"""Every journal frame is the frame ``json.dumps`` writes for its record.

For each kind in :data:`JOURNAL_RECORDS`, hypothesis draws ids (any
unicode: quotes, backslashes, control characters, lone surrogates) and
numbers (ints past 2**63, signed zero, the smallest subnormal and the
largest double, ``numpy.float64`` and an ``int`` subclass).  The frame
:func:`encode_record` builds from the per-kind template must equal the
frame built from ``json.dumps`` of the record's payload dict.  A bool, a
non-finite number or a non-string id raises :class:`ValueError` before
the writer writes a byte.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.durability import WalWriter, encode_record
from repro.core.durability.wal import wal_header
from repro.core.journal_table import JOURNAL_RECORDS

from tests.durability.helpers import json_frame


class Count(int):
    """An int subclass whose repr is not an int's: ``json`` ignores it."""

    def __repr__(self):
        return f"Count({int(self)})"


IDS = st.text(st.characters(exclude_categories=()), max_size=12)
NUMBERS = st.one_of(
    st.integers(min_value=-(2 ** 1000), max_value=2 ** 1000),
    st.integers(min_value=2 ** 63, max_value=2 ** 65),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -(2 ** 63) - 1, 2 ** 64]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers().map(Count),
)


def _values(kind):
    spec = JOURNAL_RECORDS[kind]
    return st.tuples(*[IDS] * len(spec.ids), *[NUMBERS] * len(spec.numbers))


@pytest.mark.parametrize("kind", list(JOURNAL_RECORDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), seq=st.integers(min_value=1, max_value=2 ** 64 - 1))
def test_frame_equals_the_json_dumps_frame(kind, data, seq):
    values = data.draw(_values(kind))
    payload = dict(zip(JOURNAL_RECORDS[kind].fields, values))
    assert encode_record(seq, kind, values) == json_frame(seq, kind, payload)


BAD_IDS = [1, 1.5, None, True, b"x"]
BAD_NUMBERS = [True, False, math.nan, math.inf, -math.inf, np.float64("nan"),
               2 ** 1024, None, "1"]


@pytest.mark.parametrize("kind", list(JOURNAL_RECORDS))
def test_refused_values_write_nothing(tmp_path, kind):
    spec = JOURNAL_RECORDS[kind]
    good = ["u"] * len(spec.ids) + [1.0] * len(spec.numbers)
    path = tmp_path / "journal.wal"
    with WalWriter(path, fsync="none") as writer:
        for index in range(len(good)):
            for bad in BAD_IDS if index < len(spec.ids) else BAD_NUMBERS:
                values = list(good)
                values[index] = bad
                with pytest.raises(ValueError):
                    writer.append(kind, values)
        for wrong_arity in (good[:-1], good + ["u"]):
            with pytest.raises(ValueError):
                writer.append(kind, wrong_arity)
        with pytest.raises(ValueError):
            writer.append(kind + ".x", good)
        assert writer.last_seq == 0
    assert path.read_bytes() == wal_header()
