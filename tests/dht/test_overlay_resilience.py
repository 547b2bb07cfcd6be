"""Tests for the overlay's graceful degradation, quorum reads and repair."""

from repro.core import ReputationConfig
from repro.dht import (DHTNetwork, EvaluationOverlay, FaultPlan, KeyAuthority,
                       hash_key)

PURE_EXPLICIT = ReputationConfig(eta=0.0, rho=1.0)


def _overlay(faults=None, replication=3):
    overlay = EvaluationOverlay(DHTNetwork(), KeyAuthority(),
                                config=PURE_EXPLICIT,
                                replication=replication,
                                record_ttl=100_000.0, faults=faults)
    for index in range(24):
        overlay.register_user(f"user-{index:03d}")
    return overlay


class TestDefaultPathUnchanged:
    def test_retrieval_is_complete_single_replica(self):
        overlay = _overlay()
        overlay.publish("user-001", "file-x", 0.8, now=0.0)
        retrieved = overlay.retrieve("user-002", "file-x", now=1.0)
        assert retrieved.complete
        assert retrieved.replicas_contacted == 1
        assert retrieved.quorum == 1
        assert retrieved.evaluations == {"user-001": 0.8}

    def test_availability_is_perfect_without_faults(self):
        overlay = _overlay()
        overlay.publish("user-001", "file-x", 0.8, now=0.0)
        for _ in range(5):
            overlay.retrieve("user-002", "file-x", now=1.0)
        assert overlay.availability == 1.0
        assert overlay.tally.drops == 0
        assert overlay.tally.retries == 0

    def test_inactive_plan_behaves_like_none(self):
        plain = _overlay()
        gated = _overlay(faults=FaultPlan.none())
        for overlay in (plain, gated):
            overlay.publish("user-001", "file-x", 0.8, now=0.0)
        a = plain.retrieve("user-002", "file-x", now=1.0)
        b = gated.retrieve("user-002", "file-x", now=1.0)
        assert a == b


class TestDegradedRetrieval:
    def test_quorum_read_merges_replicas(self):
        overlay = _overlay(faults=FaultPlan(seed=1, drop_probability=0.05))
        overlay.publish("user-001", "file-x", 0.8, now=0.0)
        retrieved = overlay.retrieve("user-002", "file-x", now=1.0)
        assert retrieved.quorum == 2  # majority of replication=3
        assert retrieved.replicas_contacted >= 1
        if retrieved.complete:
            assert retrieved.evaluations == {"user-001": 0.8}

    def test_partition_returns_partial_not_raise(self):
        overlay = _overlay(replication=2)
        overlay.publish("user-001", "file-x", 0.8, now=0.0)
        # Partition the requester away from everyone else.
        plan = FaultPlan(partitions={"user-002": 1})
        overlay.faults = plan
        retrieved = overlay.retrieve("user-002", "file-x", now=1.0)
        assert not retrieved.complete
        assert retrieved.evaluations == {}
        assert overlay.availability < 1.0

    def test_heavy_loss_degrades_but_never_raises(self):
        overlay = _overlay(faults=FaultPlan(drop_probability=0.8, seed=3))
        overlay.publish("user-001", "file-x", 0.8, now=0.0)
        for probe in range(10):
            retrieved = overlay.retrieve(f"user-{probe:03d}", "file-x",
                                         now=1.0)
            assert retrieved.quorum >= 1
        assert overlay.retrievals_total == 10
        assert overlay.availability < 1.0

    def test_fresher_replica_wins_merge(self):
        # Latency-only plan: activates the quorum-read merge path without
        # dropping anything, so the merge itself is what's under test.
        overlay = _overlay(faults=FaultPlan(base_latency_seconds=0.001,
                                            seed=2))
        overlay.publish("user-001", "file-x", 0.3, now=0.0)
        overlay.publish("user-001", "file-x", 0.9, now=50.0)
        retrieved = overlay.retrieve("user-002", "file-x", now=60.0)
        assert retrieved.evaluations == {"user-001": 0.9}


class TestReplicaRepair:
    def test_repair_restores_replication_after_failure(self):
        overlay = _overlay()
        overlay.publish("user-001", "file-x", 0.8, now=0.0)
        key = hash_key("file:file-x")
        primary = overlay.network.owner_of(key)
        # Kill the whole original replica set except one holder.
        holders = overlay.network.replica_nodes(key, overlay.replication)
        for node in holders[:-1]:
            if node.user_id != "user-001":
                overlay.network.fail(node.user_id)
        repaired = overlay.repair_replicas(now=1.0)
        assert repaired > 0
        assert overlay.tally.repairs == repaired
        holders_after = [
            node for node in overlay.network.replica_nodes(
                key, overlay.replication)
            if node.storage.contains(key, "user-001", 1.0)]
        assert len(holders_after) == overlay.replication

    def test_repair_preserves_ttl_horizon(self):
        overlay = _overlay()
        overlay.publish("user-001", "file-x", 0.8, now=0.0)
        key = hash_key("file:file-x")
        before = {node.user_id: node.storage.get_owner(key, "user-001", 1.0)
                  for node in overlay.network.replica_nodes(key, 3)}
        overlay.repair_replicas(now=5000.0)
        for node in overlay.network.replica_nodes(key, overlay.replication):
            record = node.storage.get_owner(key, "user-001", 5000.0)
            if record is not None:
                assert record.stored_at == 0.0  # never re-stamped

    def test_repair_skips_expired_records(self):
        overlay = _overlay()
        overlay.publish("user-001", "file-x", 0.8, now=0.0)
        repaired = overlay.repair_replicas(now=200_000.0)  # past the TTL
        assert repaired == 0

    def test_repaired_records_are_retrievable(self):
        overlay = _overlay()
        overlay.publish("user-001", "file-x", 0.8, now=0.0)
        key = hash_key("file:file-x")
        for node in list(overlay.network.replica_nodes(key, 2)):
            if node.user_id != "user-001":
                overlay.network.fail(node.user_id)
        overlay.repair_replicas(now=1.0)
        retrieved = overlay.retrieve("user-005", "file-x", now=2.0)
        assert retrieved.evaluations == {"user-001": 0.8}
