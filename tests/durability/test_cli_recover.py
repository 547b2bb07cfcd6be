"""CLI end-to-end: crash a journalled simulate, recover, compare bytes.

The two headline determinism properties:

* a crashed run's WAL is a byte-prefix of the uninterrupted same-seed
  run's WAL (canonical record encoding + deterministic simulator);
* ``repro recover --out`` re-serialises the recovered state into exactly
  the bytes of the final snapshot generation.
"""

import gc
import json

import pytest

from repro.cli import main
from repro.core.durability import WAL_FILENAME, encode_record, read_wal

_SIM = ["simulate", "--honest", "8", "--free-riders", "2",
        "--polluters", "2", "--catalog", "30", "--days", "0.25",
        "--request-rate", "0.02", "--seed", "5"]


def _simulate(wal_dir, extra=()):
    return main(_SIM + ["--wal-out", str(wal_dir)] + list(extra))


class TestSimulateWal:
    def test_run_journals_and_snapshots(self, tmp_path, capsys):
        directory = tmp_path / "state"
        assert _simulate(directory) == 0
        out = capsys.readouterr().out
        assert "journalled" in out
        scan = read_wal(directory / WAL_FILENAME)
        assert not scan.truncated
        assert scan.last_seq > 100
        assert list(directory.glob("snapshot-*.json"))

    def test_crash_at_exits_3_and_leaves_recoverable_state(
            self, tmp_path, capsys):
        directory = tmp_path / "crashed"
        code = _simulate(directory, ["--crash-at", "9000"])
        assert code == 3
        assert "crash" in capsys.readouterr().err.lower()
        assert main(["recover", str(directory)]) == 0

    def test_crash_leaves_no_write_behind(self, tmp_path):
        # WAL bytes still buffered in the process when it "dies" must never
        # reach the file, not even when the dead run is garbage-collected.
        directory = tmp_path / "crashed"
        assert _simulate(directory, ["--crash-at", "9000"]) == 3
        wal = directory / WAL_FILENAME
        size = wal.stat().st_size
        gc.collect()
        assert wal.stat().st_size == size

    def test_crashed_wal_is_byte_prefix_of_full_run(self, tmp_path):
        full, crashed = tmp_path / "full", tmp_path / "crashed"
        assert _simulate(full) == 0
        assert _simulate(crashed, ["--crash-at", "9000"]) == 3
        full_bytes = (full / WAL_FILENAME).read_bytes()
        crashed_bytes = (crashed / WAL_FILENAME).read_bytes()
        assert 0 < len(crashed_bytes) < len(full_bytes)
        assert full_bytes[:len(crashed_bytes)] == crashed_bytes

    def test_wal_out_requires_multidimensional(self, tmp_path, capsys):
        code = main(_SIM + ["--mechanism", "null",
                            "--wal-out", str(tmp_path / "x")])
        assert code == 2
        assert "multidimensional" in capsys.readouterr().err


class TestRecoverCommand:
    def test_recover_out_matches_final_snapshot_bytes(self, tmp_path,
                                                      capsys):
        directory = tmp_path / "state"
        assert _simulate(directory) == 0
        capsys.readouterr()
        out_path = tmp_path / "recovered.json"
        assert main(["recover", str(directory),
                     "--out", str(out_path)]) == 0
        newest = sorted(directory.glob("snapshot-*.json"))[-1]
        assert out_path.read_bytes() == newest.read_bytes()

    def test_recover_after_crash_replays_tail(self, tmp_path, capsys):
        directory = tmp_path / "crashed"
        assert _simulate(directory, ["--crash-at", "9000",
                                     "--snapshot-every", "50"]) == 3
        capsys.readouterr()
        assert main(["recover", str(directory), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["replayed_records"] > 0
        assert doc["last_seq"] == read_wal(directory / WAL_FILENAME).last_seq

    def test_recover_empty_directory_fails(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "void")]) == 1
        assert "recover" in capsys.readouterr().err


class TestWalInspect:
    @pytest.fixture()
    def state(self, tmp_path):
        directory = tmp_path / "state"
        assert _simulate(directory) == 0
        return directory

    def test_counts_by_kind(self, state, capsys):
        capsys.readouterr()
        assert main(["wal-inspect", str(state)]) == 0
        out = capsys.readouterr().out
        assert "ledger.download" in out
        assert "records" in out

    def test_json_totals_match_scan(self, state, capsys):
        capsys.readouterr()
        assert main(["wal-inspect", str(state), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        scan = read_wal(state / WAL_FILENAME)
        assert doc["records"] == len(scan.records)
        assert doc["last_seq"] == scan.last_seq
        assert doc["truncated"] is False

    def test_flags_truncated_tail(self, state, capsys):
        wal = state / WAL_FILENAME
        wal.write_bytes(wal.read_bytes() + b"\xff\xff\xff")
        capsys.readouterr()
        assert main(["wal-inspect", str(state)]) == 0
        assert "TRUNCATED" in capsys.readouterr().out

    def test_ends_the_log_where_recover_does(self, state, capsys):
        wal = state / WAL_FILENAME
        scan = read_wal(wal)
        with open(wal, "ab") as handle:
            handle.write(encode_record(scan.last_seq + 1, "eval.vote",
                                       ("u", "f", 7.0, 0.0)))
        assert main(["recover", str(state), "--json"]) == 0
        recovered = json.loads(capsys.readouterr().out)
        assert main(["wal-inspect", str(state), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["records"] == len(scan.records)
        assert doc["valid_bytes"] == scan.valid_bytes
        assert doc["reason"] == recovered["truncation_reason"]
        assert doc["reason"].startswith(
            f"unreplayable record at seq {scan.last_seq + 1}: ")
