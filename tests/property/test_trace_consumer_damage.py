"""Property test: every trace consumer survives byte damage.

A small seed-11 ``simulate --spans`` run is traced twice, as canonical
JSONL and as the binary columnar format.  Each example damages one of the
two files with the shared edits of :mod:`tests.property.damage` (bit flips,
truncations, insertions, nested-JSON runs, appended garbage) and feeds the
damaged copy to ``report``, ``monitor``, ``dashboard``, ``trace spans`` and
``flame`` in process.  Each must answer with exit code 0 (it read what it
could) or 1 (it reported the damage); none may raise.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main

from tests.property.damage import DAMAGE, damage, damage_edits

SIMULATE = ["simulate", "--honest", "6", "--free-riders", "1",
            "--polluters", "2", "--catalog", "20", "--days", "0.05",
            "--request-rate", "0.02", "--seed", "11", "--spans"]


def _quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _traces():
    traces = {}
    with tempfile.TemporaryDirectory() as workdir:
        for suffix in ("jsonl", "bin"):
            path = Path(workdir) / f"trace.{suffix}"
            assert _quiet(SIMULATE + ["--trace-out", str(path)]) == 0
            traces[suffix] = path.read_bytes()
    return traces


TRACES = _traces()


def _consumers(trace: Path, workdir: Path):
    return [["report", str(trace)],
            ["monitor", str(trace)],
            ["dashboard", str(trace), "--out", str(workdir / "d.html")],
            ["trace", "spans", str(trace)],
            ["flame", str(trace), "--out", str(workdir / "f.svg")]]


def test_undamaged_traces_read_cleanly():
    with tempfile.TemporaryDirectory() as workdir:
        for suffix, data in TRACES.items():
            path = Path(workdir) / f"trace.{suffix}"
            path.write_bytes(data)
            for argv in _consumers(path, Path(workdir)):
                assert _quiet(argv) == 0, argv


@settings(DAMAGE, max_examples=40)
@given(suffix=st.sampled_from(sorted(TRACES)),
       edits=damage_edits(max(len(data) for data in TRACES.values())))
def test_damaged_trace_never_raises(suffix, edits):
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / f"trace.{suffix}"
        path.write_bytes(damage(TRACES[suffix], edits))
        for argv in _consumers(path, Path(workdir)):
            assert _quiet(argv) in (0, 1), argv
