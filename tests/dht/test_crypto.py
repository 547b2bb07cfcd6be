"""Tests for repro.dht.crypto: simulated signatures."""

import pytest

from repro.dht import KeyAuthority, SignatureError


class TestKeyAuthority:
    def test_sign_verify_round_trip(self):
        authority = KeyAuthority()
        authority.register("alice")
        signature = authority.sign("alice", b"payload")
        assert authority.verify("alice", b"payload", signature)

    def test_tampered_payload_fails(self):
        authority = KeyAuthority()
        authority.register("alice")
        signature = authority.sign("alice", b"payload")
        assert not authority.verify("alice", b"tampered", signature)

    def test_wrong_signer_fails(self):
        """The Section 4.2 attack-1 property: only the owner can sign."""
        authority = KeyAuthority()
        authority.register("alice")
        authority.register("mallory")
        forged = authority.sign("mallory", b"payload")
        assert not authority.verify("alice", b"payload", forged)

    def test_unregistered_signer_raises(self):
        with pytest.raises(SignatureError):
            KeyAuthority().sign("ghost", b"payload")

    def test_unregistered_verification_fails_closed(self):
        assert not KeyAuthority().verify("ghost", b"p", b"sig")

    def test_register_is_idempotent(self):
        authority = KeyAuthority()
        authority.register("alice")
        first = authority.sign("alice", b"x")
        authority.register("alice")
        assert authority.sign("alice", b"x") == first

    def test_is_registered(self):
        authority = KeyAuthority()
        assert not authority.is_registered("alice")
        authority.register("alice")
        assert authority.is_registered("alice")

    def test_different_seeds_give_different_keys(self):
        a = KeyAuthority(seed=b"one")
        b = KeyAuthority(seed=b"two")
        a.register("alice")
        b.register("alice")
        assert a.sign("alice", b"x") != b.sign("alice", b"x")


class TestVerifyMemo:
    """``verify`` remembers genuine triples, and only genuine ones."""

    @pytest.fixture
    def authority(self):
        authority = KeyAuthority()
        for user in ("alice", "bob", "mallory"):
            authority.register(user)
        return authority

    def test_memoised_triple_still_verifies(self, authority):
        signature = authority.sign("alice", b"payload")
        assert authority.verify("alice", b"payload", signature)
        assert authority.verify("alice", b"payload", signature)

    def test_forgeries_fail_after_the_genuine_triple_is_memoised(
            self, authority):
        signature = authority.sign("alice", b"payload")
        assert authority.verify("alice", b"payload", signature)
        forged = authority.sign("mallory", b"payload")
        assert not authority.verify("alice", b"payload", forged)
        assert not authority.verify("bob", b"payload", signature)
        assert not authority.verify("alice", b"altered", signature)
        # Rejections are never remembered as passes.
        assert not authority.verify("alice", b"payload", forged)

    def test_authorities_share_no_memo(self):
        first = KeyAuthority(seed=b"one")
        second = KeyAuthority(seed=b"two")
        first.register("alice")
        second.register("alice")
        signature = first.sign("alice", b"payload")
        assert first.verify("alice", b"payload", signature)
        assert not second.verify("alice", b"payload", signature)

    def test_forged_overwrite_of_a_verified_record_is_rejected(self):
        """A genuine evaluation is retrieved (and memoised), then a forger
        overwrites it under the victim's name: the read drops the forgery."""
        from repro.dht import (DHTNetwork, EvaluationOverlay,
                               attempt_forged_publication)

        overlay = EvaluationOverlay(DHTNetwork(), KeyAuthority())
        for user in ("victim", "attacker", "reader"):
            overlay.register_user(user)
        overlay.publish("victim", "file-x", 0.9, now=0.0)
        genuine = overlay.retrieve("reader", "file-x", now=0.0)
        assert genuine.evaluations == {"victim": 0.9}
        assert not attempt_forged_publication(
            overlay, "attacker", "victim", "file-x", 0.0, now=0.0)
        forged = overlay.retrieve("reader", "file-x", now=0.0)
        assert forged.evaluations == {}
        assert forged.rejected == 1

    def test_forgery_benchmark_counts_unchanged(self):
        from benchmarks.test_claim_attack_resilience import (
            _forgery_experiment)

        assert _forgery_experiment() == (0, 50)
