"""Tests for snapshot generations: atomicity, pruning, quarantine."""

import json

import pytest

from repro.core import MultiDimensionalReputationSystem
from repro.core.durability import SnapshotStore, flip_byte, truncate_file
from repro.core.durability.snapshots import KEEP_GENERATIONS
from repro.core.persistence import snapshot_checksum, system_to_dict


def _system(marker: float = 0.9):
    system = MultiDimensionalReputationSystem()
    system.record_vote("alice", "f1", marker, timestamp=1.0)
    system.record_download("alice", "bob", "f1", 1e6, timestamp=2.0)
    return system


class TestWrite:
    def test_write_names_generation_by_seq(self, tmp_path):
        store = SnapshotStore(tmp_path)
        path = store.write(_system(), last_seq=17)
        assert path.name == f"snapshot-{17:020d}.json"
        assert json.loads(path.read_text())["wal"]["last_seq"] == 17

    def test_no_temp_file_left_behind(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(_system(), last_seq=1)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_prunes_to_keep_count(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for seq in (1, 2, 3, 4):
            store.write(_system(), last_seq=seq)
        seqs = [seq for seq, _ in store.generations()]
        assert KEEP_GENERATIONS == 3
        assert seqs == [2, 3, 4]


class TestLoad:
    def test_loads_newest_generation(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(_system(0.2), last_seq=1)
        store.write(_system(0.9), last_seq=2)
        loaded = store.load_latest()
        assert loaded.last_seq == 2
        vote = loaded.system.evaluations.get("alice", "f1")
        assert vote.explicit == 0.9

    def test_indented_generation_loads(self, tmp_path):
        """A generation in the layout written before the compact one (an
        ``indent=1, sort_keys=True`` dump) still loads and verifies."""
        store = SnapshotStore(tmp_path)
        store.write(_system(0.2), last_seq=1)
        data = system_to_dict(_system(0.9), last_seq=2)
        store.path_for(2).write_text(json.dumps(data, indent=1,
                                                sort_keys=True))
        loaded = store.load_latest()
        assert loaded.last_seq == 2
        assert loaded.quarantined == []
        assert system_to_dict(loaded.system, last_seq=2) == data

    def test_empty_directory_loads_none(self, tmp_path):
        assert SnapshotStore(tmp_path).load_latest() is None
        assert SnapshotStore(tmp_path / "missing").load_latest() is None

    def test_corrupt_latest_falls_back(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(_system(0.2), last_seq=1)
        newest = store.write(_system(0.9), last_seq=2)
        flip_byte(newest, 300)
        loaded = store.load_latest()
        assert loaded.last_seq == 1
        assert loaded.system.evaluations.get("alice", "f1").explicit == 0.2

    def test_corrupt_generation_is_quarantined(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(_system(0.2), last_seq=1)
        newest = store.write(_system(0.9), last_seq=2)
        flip_byte(newest, 300)
        loaded = store.load_latest()
        assert len(loaded.quarantined) == 1
        entry = loaded.quarantined[0]
        assert entry.quarantined.name.endswith(".corrupt")
        assert entry.quarantined.exists()
        assert not newest.exists()
        # A quarantined file is never re-read as a generation.
        assert [seq for seq, _ in store.generations()] == [1]

    def test_truncated_json_is_quarantined(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(_system(0.2), last_seq=1)
        newest = store.write(_system(0.9), last_seq=2)
        truncate_file(newest, newest.stat().st_size // 2)
        loaded = store.load_latest()
        assert loaded.last_seq == 1
        assert len(loaded.quarantined) == 1

    def test_deeply_nested_json_is_quarantined(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(_system(0.2), last_seq=1)
        newest = store.write(_system(0.9), last_seq=2)
        newest.write_text("[" * 200_000)
        loaded = store.load_latest()
        assert loaded.last_seq == 1
        assert [q.original for q in loaded.quarantined] == [newest]

    def test_all_generations_corrupt_raises(self, tmp_path):
        store = SnapshotStore(tmp_path)
        first = store.write(_system(0.2), last_seq=1)
        second = store.write(_system(0.9), last_seq=2)
        flip_byte(first, 300)
        flip_byte(second, 300)
        with pytest.raises(ValueError, match="every snapshot generation"):
            store.load_latest()
        # Both preserved for post-mortem, neither trusted.
        assert len(list(tmp_path.glob("*.corrupt"))) == 2

    def test_checksum_catches_silent_field_edit(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(_system(0.2), last_seq=1)
        newest = store.write(_system(0.9), last_seq=2)
        data = json.loads(newest.read_text())
        data["auto_refresh"] = not data["auto_refresh"]
        newest.write_text(json.dumps(data, indent=1, sort_keys=True))
        loaded = store.load_latest()
        assert loaded.last_seq == 1
        assert "checksum" in loaded.quarantined[0].reason

    @pytest.mark.parametrize("document", ["[]", "null", '"x"'])
    def test_non_object_document_is_quarantined(self, tmp_path, document):
        store = SnapshotStore(tmp_path)
        store.write(_system(0.2), last_seq=1)
        newest = store.write(_system(0.9), last_seq=2)
        newest.write_text(document)
        loaded = store.load_latest()
        assert loaded.last_seq == 1
        assert "JSON object" in loaded.quarantined[0].reason

    @pytest.mark.parametrize("field", ["size", "timestamp"])
    def test_non_finite_download_is_quarantined(self, tmp_path, field):
        """Restore re-enters the store mutators, which refuse what the
        journal table refuses, even in a correctly stamped generation."""
        store = SnapshotStore(tmp_path)
        store.write(_system(0.2), last_seq=1)
        newest = store.write(_system(0.9), last_seq=2)
        data = json.loads(newest.read_text())
        data["downloads"][0][field] = float("inf")
        data["checksum"] = snapshot_checksum(data)
        newest.write_text(json.dumps(data, indent=1, sort_keys=True))
        loaded = store.load_latest()
        assert loaded.last_seq == 1
        assert "finite" in loaded.quarantined[0].reason
