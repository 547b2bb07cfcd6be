"""Tests for repro.dht.security: Section 4.2 attacks and defences."""

import dataclasses

import pytest

from repro.dht import (DHTNetwork, EvaluationOverlay, KeyAuthority,
                       ProactiveExaminer, attempt_forged_publication,
                       hash_key, make_mimic_responder)


@pytest.fixture
def overlay():
    overlay = EvaluationOverlay(DHTNetwork(), KeyAuthority(),
                                record_ttl=10_000.0)
    for index in range(24):
        overlay.register_user(f"user-{index:03d}")
    return overlay


@pytest.fixture
def catalog():
    return [f"file-{index:02d}" for index in range(12)]


class TestAttack1Forgery:
    def test_forged_publication_rejected(self, overlay):
        """Attack 1: forging another user's evaluation fails verification."""
        accepted = attempt_forged_publication(
            overlay, attacker_id="user-001", victim_id="user-002",
            file_id="file-x", forged_evaluation=0.0, now=0.0)
        assert not accepted

    def test_forged_record_counted_as_rejected(self, overlay):
        attempt_forged_publication(overlay, "user-001", "user-002",
                                   "file-x", 0.0, now=0.0)
        retrieved = overlay.retrieve("user-003", "file-x", now=0.5)
        assert retrieved.rejected >= 1

    def test_tampered_evaluation_rejected(self, overlay):
        """A genuine signature over a cached payload does not carry over to
        a copy whose evaluation was changed."""
        overlay.publish("user-002", "file-x", 0.9, now=0.0)
        key = hash_key("file:file-x")
        for replica in overlay.network.replica_nodes(key,
                                                     overlay.replication):
            stored = replica.storage.get_owner(key, "user-002", now=0.0)
            genuine = stored.value.evaluation
            assert overlay.authority.verify("user-002", genuine.payload(),
                                            genuine.signature)
            tampered = dataclasses.replace(
                stored.value,
                evaluation=dataclasses.replace(genuine, evaluation=0.0))
            replica.storage.put(key, "user-002", tampered, 0.0,
                                overlay.record_ttl)
        retrieved = overlay.retrieve("user-003", "file-x", now=0.5)
        assert "user-002" not in retrieved.evaluations
        assert retrieved.rejected >= 1

    def test_genuine_publication_unaffected(self, overlay):
        overlay.publish("user-002", "file-x", 0.9, now=0.0)
        attempt_forged_publication(overlay, "user-001", "user-002",
                                   "file-y", 0.0, now=0.0)
        retrieved = overlay.retrieve("user-003", "file-x", now=0.5)
        assert retrieved.evaluations == {"user-002": 0.9}


class TestAttack3MimicAndExamination:
    def _publish_honest_profile(self, overlay, user_id, catalog):
        for index, file_id in enumerate(catalog[:6]):
            overlay.publish(user_id, file_id, (index % 5) / 5.0, now=0.0)

    def test_honest_user_not_flagged(self, overlay, catalog):
        self._publish_honest_profile(overlay, "user-010", catalog)
        examiner = ProactiveExaminer(overlay, seed=5)
        report = examiner.examine("user-010", catalog)
        assert not report.flagged
        assert report.divergence == pytest.approx(0.0)

    def test_mimic_is_flagged(self, overlay, catalog):
        overlay.set_responder("user-011", make_mimic_responder(overlay))
        examiner = ProactiveExaminer(overlay, seed=5)
        report = examiner.examine("user-011", catalog)
        assert report.flagged

    def test_mimic_fools_direct_trust(self, overlay, catalog):
        """Why the attack matters: the mimic earns perfect file trust."""
        self._publish_honest_profile(overlay, "user-010", catalog)
        overlay.set_responder("user-011", make_mimic_responder(overlay))
        rm = overlay.compute_reputation_matrix("user-010", ["user-011"])
        assert rm.get("user-010", "user-011") == pytest.approx(1.0)

    def test_empty_list_user_not_flagged(self, overlay, catalog):
        examiner = ProactiveExaminer(overlay, seed=5)
        report = examiner.examine("user-015", catalog)
        assert not report.flagged

    def test_probe_identities_are_fresh(self, overlay, catalog):
        examiner = ProactiveExaminer(overlay, seed=5)
        examiner.examine("user-010", catalog)
        examiner.examine("user-012", catalog)
        probes = [user for user in ("__probe-0001", "__probe-0002",
                                    "__probe-0003", "__probe-0004")
                  if overlay.network.has_node(user)]
        assert len(probes) == 4
