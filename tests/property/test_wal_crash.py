"""Property tests: crash anywhere in the WAL, recover an exact prefix.

The plain cases of the WAL damage property in ``test_decoder_damage.py``,
through the same check in ``damage.py``: a crash that cuts the file at any
byte, garbage appended behind the last frame, and two journals of one
interleaving.  Whatever survives on disk is a prefix of the record stream,
and ``recover(repair=True)`` equals a fresh replay of that prefix.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.property.damage import INTERLEAVINGS, check_wal_damage, journal


@settings(max_examples=40, deadline=None)
@given(interleaving=INTERLEAVINGS, cut=st.integers(min_value=0))
def test_crash_at_any_byte_recovers_exact_prefix(interleaving, cut):
    check_wal_damage(interleaving, [("truncate", cut, b"")])


@settings(max_examples=15, deadline=None)
@given(interleaving=INTERLEAVINGS)
def test_same_interleaving_writes_identical_wal_bytes(interleaving):
    with tempfile.TemporaryDirectory() as workdir:
        first = journal(Path(workdir) / "a", interleaving)
        second = journal(Path(workdir) / "b", interleaving)
        assert first.read_bytes() == second.read_bytes()


@settings(max_examples=25, deadline=None)
@given(interleaving=INTERLEAVINGS,
       garbage=st.binary(min_size=1, max_size=64))
def test_appended_garbage_never_corrupts_prefix(interleaving, garbage):
    check_wal_damage(interleaving, [("append", 0, garbage)])
