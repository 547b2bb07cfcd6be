"""Tests for repro.core.incentive: service differentiation and credits."""

import random

import pytest

from repro.core import (ActionCreditTracker, IncentiveAction,
                        ReputationConfig, ServiceDifferentiator)


@pytest.fixture
def config():
    return ReputationConfig(max_queue_offset_seconds=60.0,
                            min_bandwidth_quota=10_000.0,
                            max_bandwidth_quota=100_000.0)


class TestServiceDifferentiator:
    def test_offset_grows_with_reputation(self, config):
        differentiator = ServiceDifferentiator(config, reference_reputation=1.0)
        assert differentiator.queue_offset(0.0) == 0.0
        assert differentiator.queue_offset(0.5) == pytest.approx(30.0)
        assert differentiator.queue_offset(1.0) == pytest.approx(60.0)

    def test_offset_clamped_at_reference(self, config):
        differentiator = ServiceDifferentiator(config, reference_reputation=1.0)
        assert differentiator.queue_offset(5.0) == pytest.approx(60.0)

    def test_bandwidth_interpolates_between_quotas(self, config):
        differentiator = ServiceDifferentiator(config, reference_reputation=1.0)
        assert differentiator.bandwidth_quota(0.0) == pytest.approx(10_000.0)
        assert differentiator.bandwidth_quota(1.0) == pytest.approx(100_000.0)
        assert differentiator.bandwidth_quota(0.5) == pytest.approx(55_000.0)

    def test_reference_scales_normalization(self, config):
        differentiator = ServiceDifferentiator(config,
                                               reference_reputation=0.01)
        # Reputation 0.01 is "the best anyone has" -> full service.
        assert differentiator.queue_offset(0.01) == pytest.approx(60.0)

    def test_nonpositive_reference_rejected(self, config):
        with pytest.raises(ValueError):
            ServiceDifferentiator(config, reference_reputation=0.0)

    def test_negative_reputation_treated_as_zero(self, config):
        differentiator = ServiceDifferentiator(config)
        assert differentiator.normalize(-1.0) == 0.0

    def test_service_level_bundle(self, config):
        differentiator = ServiceDifferentiator(config)
        level = differentiator.service_level("u", 1.0)
        assert level.requester == "u"
        assert level.queue_offset_seconds == pytest.approx(60.0)
        assert level.bandwidth_quota == pytest.approx(100_000.0)


class TestQueueOrdering:
    def test_high_reputation_jumps_the_queue(self, config):
        differentiator = ServiceDifferentiator(config)
        # "good" arrives 30s later but earns a 60s offset.
        ordered = differentiator.order_queue([
            ("early-stranger", 0.0, 0.0),
            ("good", 30.0, 1.0),
        ])
        assert [name for name, _ in ordered] == ["good", "early-stranger"]

    def test_offset_not_enough_to_overcome_big_gap(self, config):
        differentiator = ServiceDifferentiator(config)
        ordered = differentiator.order_queue([
            ("early-stranger", 0.0, 0.0),
            ("good", 120.0, 1.0),
        ])
        assert [name for name, _ in ordered] == ["early-stranger", "good"]

    def test_fifo_among_equals(self, config):
        differentiator = ServiceDifferentiator(config)
        ordered = differentiator.order_queue([
            ("second", 10.0, 0.5),
            ("first", 5.0, 0.5),
        ])
        assert [name for name, _ in ordered] == ["first", "second"]

    def test_deterministic_tie_break_by_name(self, config):
        differentiator = ServiceDifferentiator(config)
        ordered = differentiator.order_queue([
            ("b", 0.0, 0.0), ("a", 0.0, 0.0)])
        assert [name for name, _ in ordered] == ["a", "b"]


class TestActionCredits:
    def test_each_action_uses_configured_credit(self):
        config = ReputationConfig(upload_credit=2.0, vote_credit=0.5,
                                  rank_credit=0.25, delete_fake_credit=1.0)
        tracker = ActionCreditTracker(config=config)
        tracker.record("u", IncentiveAction.UPLOAD_REAL_FILE)
        tracker.record("u", IncentiveAction.VOTE)
        tracker.record("u", IncentiveAction.RANK_USER)
        tracker.record("u", IncentiveAction.DELETE_FAKE_FILE)
        assert tracker.credit("u") == pytest.approx(3.75)

    def test_action_counts_tracked(self):
        tracker = ActionCreditTracker()
        tracker.record("u", IncentiveAction.VOTE)
        tracker.record("u", IncentiveAction.VOTE)
        assert tracker.action_count("u", IncentiveAction.VOTE) == 2
        assert tracker.action_count("u", IncentiveAction.RANK_USER) == 0

    def test_magnitude_scales_credit(self):
        tracker = ActionCreditTracker()
        tracker.record("u", IncentiveAction.VOTE, magnitude=4.0)
        assert tracker.credit("u") == pytest.approx(1.0)  # 4 * 0.25

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            ActionCreditTracker().record("u", IncentiveAction.VOTE,
                                         magnitude=-1.0)

    def test_unknown_user_has_zero_credit(self):
        assert ActionCreditTracker().credit("nobody") == 0.0

    def test_max_credit_is_the_largest_balance(self):
        tracker = ActionCreditTracker()
        assert tracker.max_credit() == 0.0
        tracker.record("low", IncentiveAction.RANK_USER, magnitude=0.0)
        assert tracker.max_credit() == 0.0
        rng = random.Random(5)
        for _ in range(200):
            tracker.record(f"u{rng.randrange(20)}",
                           rng.choice(list(IncentiveAction)),
                           magnitude=rng.choice([0.0, rng.random(), 3.0]))
            assert tracker.max_credit() == max(tracker.balances().values())
        restored = ActionCreditTracker()
        restored.restore_balances(tracker.balances())
        assert restored.max_credit() == tracker.max_credit()
        restored.record("u0", IncentiveAction.VOTE, magnitude=1e6)
        assert restored.max_credit() == restored.credit("u0")

    def test_top_users_ordering(self):
        tracker = ActionCreditTracker()
        tracker.record("low", IncentiveAction.RANK_USER)
        tracker.record("high", IncentiveAction.UPLOAD_REAL_FILE)
        assert [user for user, _ in tracker.top_users(2)] == ["high", "low"]

    def test_every_prosocial_action_increases_credit(self):
        """Section 3.4: uploads, votes, ranks and fake deletions all pay."""
        tracker = ActionCreditTracker()
        balance = 0.0
        for action in IncentiveAction:
            new_balance = tracker.record("u", action)
            assert new_balance > balance
            balance = new_balance
