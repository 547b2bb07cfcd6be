"""Tests for repro.core.persistence: save/restore round trips."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import (MultiDimensionalReputationSystem, ReputationConfig,
                        load_system, save_system, system_from_dict,
                        system_to_dict)
from repro.core.persistence import (FORMAT_VERSION, snapshot_checksum,
                                    wal_last_seq)

DAY = 24 * 3600.0


def _populated(**overrides):
    config = ReputationConfig(**{
        **dict(eta=0.3, rho=0.7, alpha=0.4, beta=0.4, gamma=0.2,
               multitrust_steps=2), **overrides})
    system = MultiDimensionalReputationSystem(config)
    system.record_retention("alice", "f1", 20 * DAY, timestamp=10.0)
    system.record_vote("alice", "f1", 0.9, timestamp=11.0)
    system.record_play("alice", "f2", 0.8, timestamp=12.0)
    system.record_vote("bob", "f1", 0.85, timestamp=13.0)
    system.record_download("alice", "bob", "f1", 5e8, timestamp=14.0)
    system.record_rank("alice", "bob", 0.7)
    system.add_friend("bob", "alice")
    system.add_to_blacklist("alice", "mallory")
    system.record_fake_deletion("bob", "junk", timestamp=15.0)
    system.record_real_upload("bob")
    return system


@pytest.fixture
def populated_system():
    return _populated()


class TestRoundTrip:
    def test_dict_round_trip_preserves_reputations(self, populated_system):
        restored = system_from_dict(system_to_dict(populated_system))
        users = ("alice", "bob", "mallory")
        for observer in users:
            for target in users:
                assert restored.user_reputation(observer, target) == \
                    pytest.approx(
                        populated_system.user_reputation(observer, target))

    def test_config_restored(self, populated_system):
        restored = system_from_dict(system_to_dict(populated_system))
        assert restored.config == populated_system.config

    def test_matmul_backend_round_trips(self):
        system = MultiDimensionalReputationSystem(
            ReputationConfig(matmul_backend="dense"))
        system.record_vote("alice", "f1", 0.9)
        restored = system_from_dict(system_to_dict(system))
        assert restored.config.matmul_backend == "dense"

    def test_sparse_spelling_loads_as_csr(self):
        # "sparse" named the deleted dict-of-dicts product, which gave the
        # csr backend's bits: a document naming it loads, keeps the
        # spelling, and publishes the csr backend's RM.
        restored = system_from_dict(system_to_dict(
            _populated(matmul_backend="sparse")))
        assert restored.config.matmul_backend == "sparse"
        csr = _populated(matmul_backend="csr")
        reputation = restored.reputation_matrix()
        assert reputation.entry_count() > 0
        assert reputation.checksum() == csr.reputation_matrix().checksum()
        assert restored.pipeline.last_stats.backend == "csr"

    def test_evaluation_channels_restored(self, populated_system):
        restored = system_from_dict(system_to_dict(populated_system))
        original = populated_system.evaluations.get("alice", "f2")
        copy = restored.evaluations.get("alice", "f2")
        assert copy.play_fraction == original.play_fraction
        original = populated_system.evaluations.get("alice", "f1")
        copy = restored.evaluations.get("alice", "f1")
        assert copy.explicit == original.explicit
        assert copy.implicit == original.implicit
        assert copy.timestamp == original.timestamp

    def test_user_trust_restored(self, populated_system):
        restored = system_from_dict(system_to_dict(populated_system))
        assert restored.user_trust.is_friend("bob", "alice")
        assert restored.user_trust.is_blacklisted("alice", "mallory")
        assert restored.user_trust.trust("alice", "bob") == 0.7

    def test_credits_restored(self, populated_system):
        restored = system_from_dict(system_to_dict(populated_system))
        for user in ("alice", "bob"):
            assert restored.credits.credit(user) == pytest.approx(
                populated_system.credits.credit(user))

    def test_judgements_survive_round_trip(self, populated_system):
        restored = system_from_dict(system_to_dict(populated_system))
        original = populated_system.judge_file("alice", "f1")
        copy = restored.judge_file("alice", "f1")
        assert copy.accept == original.accept
        assert copy.reputation == pytest.approx(original.reputation)


class TestFileRoundTrip:
    def test_save_and_load(self, populated_system, tmp_path):
        path = tmp_path / "state.json"
        save_system(populated_system, path)
        restored = load_system(path)
        assert restored.user_reputation("alice", "bob") == pytest.approx(
            populated_system.user_reputation("alice", "bob"))

    def test_file_is_valid_json(self, populated_system, tmp_path):
        path = tmp_path / "state.json"
        save_system(populated_system, path)
        data = json.loads(path.read_text())
        assert data["format_version"] == FORMAT_VERSION

    def test_save_is_deterministic(self, populated_system, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_system(populated_system, a)
        save_system(populated_system, b)
        assert a.read_text() == b.read_text()

    def test_file_is_the_canonical_dump_with_its_checksum_first(
            self, populated_system, tmp_path):
        path = tmp_path / "state.json"
        save_system(populated_system, path, last_seq=9)
        data = system_to_dict(populated_system, last_seq=9)
        body = json.dumps({key: value for key, value in data.items()
                           if key != "checksum"},
                          sort_keys=True, separators=(",", ":")).encode()
        digest = hashlib.sha256(body).hexdigest().encode()
        assert path.read_bytes() == (b'{"checksum":"' + digest + b'",'
                                     + body[1:])
        assert json.loads(path.read_bytes()) == data

    def test_indented_file_still_loads(self, populated_system, tmp_path):
        """Files written before the compact layout keep loading."""
        path = tmp_path / "state.json"
        data = system_to_dict(populated_system, last_seq=9)
        path.write_text(json.dumps(data, indent=1, sort_keys=True))
        assert system_to_dict(load_system(path), last_seq=9) == data


class TestVersioning:
    def test_unknown_version_rejected(self, populated_system):
        data = system_to_dict(populated_system)
        data["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            system_from_dict(data)

    def test_missing_version_rejected(self, populated_system):
        data = system_to_dict(populated_system)
        del data["format_version"]
        with pytest.raises(ValueError):
            system_from_dict(data)


def _as_v1(data):
    """Rewrite a current-format dump as a faithful version-1 document."""
    v1 = {key: value for key, value in data.items()
          if key not in ("wal", "checksum")}
    v1["format_version"] = 1
    return v1


class TestV1Migration:
    """Version-1 documents (pre-WAL, pre-checksum) must keep loading."""

    def test_v1_document_loads(self, populated_system):
        v1 = _as_v1(system_to_dict(populated_system))
        restored = system_from_dict(v1)
        users = ("alice", "bob", "mallory")
        for observer in users:
            for target in users:
                assert restored.user_reputation(observer, target) == \
                    pytest.approx(
                        populated_system.user_reputation(observer, target))

    def test_v1_has_no_wal_coverage(self, populated_system):
        v1 = _as_v1(system_to_dict(populated_system))
        assert wal_last_seq(v1) == 0

    def test_v1_json_file_loads(self, populated_system, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(_as_v1(system_to_dict(populated_system))))
        restored = load_system(path)
        assert restored.user_trust.is_friend("bob", "alice")


class TestV2Metadata:
    def test_wal_seq_round_trips(self, populated_system):
        data = system_to_dict(populated_system, last_seq=42)
        assert wal_last_seq(data) == 42
        system_from_dict(data)  # still restores with the wal section

    def test_checksum_is_stamped_and_verifies(self, populated_system):
        data = system_to_dict(populated_system)
        assert data["checksum"] == snapshot_checksum(data)
        system_from_dict(data)

    def test_checksum_mismatch_rejected(self, populated_system):
        data = system_to_dict(populated_system)
        data["auto_refresh"] = not data["auto_refresh"]
        with pytest.raises(ValueError, match="checksum mismatch"):
            system_from_dict(data)

    def test_malformed_wal_section_rejected(self, populated_system):
        data = system_to_dict(populated_system, last_seq=7)
        data["wal"] = {"last_seq": "seven"}
        data["checksum"] = snapshot_checksum(data)
        with pytest.raises(ValueError, match="'wal'"):
            system_from_dict(data)


#: A v3 document written with ``shards=4`` (and ``multitrust_steps=2``) by
#: the last build that had the in-process sharded pipeline, and the
#: checksums that build's live system published for the same stores.
V3_SHARDED_FIXTURE = Path(__file__).parent / "fixtures" / "v3_sharded_snapshot.json"
V3_SHARDED_CHECKSUMS = {
    "trust": "4afd4e5fc467fdf4a936fc412a5a31e3644c261e16fc2bcda6663e3d2e160c75",
    "reputation":
        "66f4723252a2f72268ab13679ba657a73db45b3e71ce67c5de1bf8b249d6a784",
}


def _checksums(system):
    system.refresh_view()
    return system.pipeline.checksums()


class TestV3Sharding:
    """v4 writes no sharding state; v3 sharding state loads and is ignored."""

    def _v3(self):
        return json.loads(V3_SHARDED_FIXTURE.read_text())

    def test_unsharded_document_has_no_sharding_section(
            self, populated_system):
        data = system_to_dict(populated_system)
        assert FORMAT_VERSION == 4
        assert "sharding" not in data
        assert not {"shards", "shard_workers"} & set(data["config"])

    def test_sharded_round_trip(self):
        data = self._v3()
        assert data["format_version"] == 3
        assert data["config"]["shards"] == 4 and "sharding" in data
        restored = load_system(V3_SHARDED_FIXTURE)
        assert restored.config.multitrust_steps == 2
        assert _checksums(restored) == V3_SHARDED_CHECKSUMS

    def test_v3_matches_same_stores_loaded_unsharded(self):
        data = self._v3()
        del data["sharding"]
        del data["config"]["shards"]
        del data["config"]["shard_workers"]
        data["format_version"] = 2
        data["checksum"] = snapshot_checksum(data)
        assert _checksums(system_from_dict(data)) \
            == _checksums(system_from_dict(self._v3()))

    def test_v3_checksum_still_covers_shard_state(self):
        data = self._v3()
        data["sharding"]["shards"] = 8
        with pytest.raises(ValueError, match="checksum mismatch"):
            system_from_dict(data)
        data = self._v3()
        data["config"]["shard_workers"] = 2
        with pytest.raises(ValueError, match="checksum mismatch"):
            system_from_dict(data)

    def test_shard_state_rejected_outside_v3(self, populated_system):
        data = system_to_dict(populated_system)
        data["config"]["shards"] = 4
        data["checksum"] = snapshot_checksum(data)
        with pytest.raises(ValueError, match="'shards'"):
            system_from_dict(data)
        data = system_to_dict(populated_system)
        data["sharding"] = {"shards": 1}
        data["checksum"] = snapshot_checksum(data)
        with pytest.raises(ValueError, match="'sharding'"):
            system_from_dict(data)

    def test_v2_document_without_shard_knobs_loads(self, populated_system):
        data = system_to_dict(populated_system)
        data["format_version"] = 2
        data["checksum"] = snapshot_checksum(data)
        restored = system_from_dict(data)
        assert restored.config == populated_system.config


class TestPreciseErrors:
    """Rejections must name the offending field or section."""

    def _unstamped(self, populated_system, mutate):
        data = system_to_dict(populated_system)
        mutate(data)
        data["checksum"] = snapshot_checksum(data)
        return data

    def test_missing_section_is_named(self, populated_system):
        data = self._unstamped(populated_system,
                               lambda d: d.pop("downloads"))
        with pytest.raises(ValueError, match="'downloads'"):
            system_from_dict(data)

    def test_unknown_section_is_named(self, populated_system):
        data = self._unstamped(
            populated_system,
            lambda d: d.__setitem__("telemetry", {}))
        with pytest.raises(ValueError, match="'telemetry'"):
            system_from_dict(data)

    def test_unknown_config_field_is_named(self, populated_system):
        data = self._unstamped(
            populated_system,
            lambda d: d["config"].__setitem__("warp_factor", 9))
        with pytest.raises(ValueError, match="'warp_factor'"):
            system_from_dict(data)

    def test_missing_config_field_is_named(self, populated_system):
        data = self._unstamped(populated_system,
                               lambda d: d["config"].pop("eta"))
        with pytest.raises(ValueError, match="'eta'"):
            system_from_dict(data)

    def test_multiple_missing_fields_all_named(self, populated_system):
        def mutate(d):
            d["config"].pop("eta")
            d["config"].pop("rho")
        data = self._unstamped(populated_system, mutate)
        with pytest.raises(ValueError, match="'eta'.*'rho'"):
            system_from_dict(data)
