"""Tests for repro.dht.storage: TTL storage."""

from repro.dht import NodeStorage
from repro.dht.storage import DEFAULT_TTL_SECONDS as TTL


class TestPutGet:
    def test_round_trip(self):
        storage = NodeStorage()
        storage.put(1, "alice", "value", now=0.0)
        records = storage.get(1, now=10.0)
        assert len(records) == 1
        assert records[0].value == "value"

    def test_one_record_per_owner_per_key(self):
        storage = NodeStorage()
        storage.put(1, "alice", "old", now=0.0)
        storage.put(1, "alice", "new", now=10.0)
        records = storage.get(1, now=20.0)
        assert [r.value for r in records] == ["new"]

    def test_multiple_owners_coexist(self):
        storage = NodeStorage()
        storage.put(1, "alice", "a", now=0.0)
        storage.put(1, "bob", "b", now=0.0)
        assert len(storage.get(1, now=1.0)) == 2

    def test_get_owner(self):
        storage = NodeStorage()
        storage.put(1, "alice", "a", now=0.0)
        assert storage.get_owner(1, "alice", now=1.0).value == "a"
        assert storage.get_owner(1, "bob", now=1.0) is None


class TestExpiry:
    def test_records_expire_after_ttl(self):
        storage = NodeStorage()
        storage.put(1, "alice", "a", now=0.0)
        assert storage.get(1, now=TTL - 1.0)
        assert storage.get(1, now=TTL) == []

    def test_republication_refreshes_ttl(self):
        """Section 4.1 step 2: update via regular republication."""
        storage = NodeStorage()
        storage.put(1, "alice", "a", now=0.0)
        storage.put(1, "alice", "a", now=0.9 * TTL)  # republish
        assert storage.get(1, now=1.5 * TTL)

    def test_per_record_ttl_override(self):
        storage = NodeStorage()
        storage.put(1, "alice", "a", now=0.0, ttl=10.0)
        assert storage.get(1, now=20.0) == []

    def test_expire_all_counts_removals(self):
        storage = NodeStorage()
        storage.put(1, "alice", "a", now=0.0)
        storage.put(2, "bob", "b", now=5.0)
        assert storage.expire_all(now=TTL + 2.0) == 1
        assert len(storage) == 1

    def test_expired_keys_removed_from_keys(self):
        storage = NodeStorage()
        storage.put(1, "alice", "a", now=0.0)
        storage.expire_all(now=10 * TTL)
        assert storage.keys() == []


class TestRemove:
    def test_remove_existing(self):
        storage = NodeStorage()
        storage.put(1, "alice", "a", now=0.0)
        assert storage.remove(1, "alice")
        assert len(storage) == 0

    def test_remove_missing_returns_false(self):
        assert not NodeStorage().remove(1, "alice")

    def test_records_iterator(self):
        storage = NodeStorage()
        storage.put(1, "alice", "a", now=0.0)
        storage.put(2, "bob", "b", now=0.0)
        assert sorted(r.owner_id for r in storage.records()) == ["alice", "bob"]
