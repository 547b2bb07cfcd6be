"""Tests for the MultiDimensionalReputationSystem facade."""

import pytest

from repro.core import (MultiDimensionalReputationSystem, ReputationConfig)

DAY = 24 * 3600.0
PURE_EXPLICIT = ReputationConfig(eta=0.0, rho=1.0)


@pytest.fixture
def system():
    return MultiDimensionalReputationSystem(PURE_EXPLICIT)


def _build_agreeing_pair(system, a="a", b="b"):
    system.record_vote(a, "f1", 0.9)
    system.record_vote(b, "f1", 0.9)
    system.record_vote(a, "f2", 0.2)
    system.record_vote(b, "f2", 0.2)


class TestIngestion:
    def test_download_feeds_volume_dimension(self, system):
        system.record_download("a", "b", "f1", 1000.0)
        system.record_vote("a", "f1", 1.0)
        tm = system.one_step_matrix()
        assert tm.get("a", "b") > 0.0

    def test_votes_feed_file_dimension(self, system):
        _build_agreeing_pair(system)
        assert system.one_step_matrix().get("a", "b") > 0.0

    def test_ranks_feed_user_dimension(self, system):
        system.record_rank("a", "b", 0.9)
        assert system.one_step_matrix().get("a", "b") > 0.0

    def test_blacklist_removes_user_edge(self, system):
        system.record_rank("a", "b", 0.9)
        system.add_to_blacklist("a", "b")
        assert system.one_step_matrix().get("a", "b") == 0.0

    def test_friend_creates_strong_edge(self, system):
        system.add_friend("a", "b")
        assert system.one_step_matrix().get("a", "b") == pytest.approx(
            PURE_EXPLICIT.gamma)

    def test_fake_deletion_zeroes_evaluation_and_credits(self, system):
        system.record_vote("a", "fake", 0.9)
        system.record_fake_deletion("a", "fake")
        assert system.evaluations.get("a", "fake").implicit == 0.0
        assert system.credits.credit("a") > 0.0

    def test_prune_before_drops_old_state(self, system):
        system.record_vote("a", "old", 0.9, timestamp=0.0)
        system.record_download("a", "b", "old", 100.0, timestamp=0.0)
        system.record_vote("a", "new", 0.9, timestamp=100.0)
        removed = system.prune_before(50.0)
        assert removed == 2
        assert system.evaluations.files_evaluated_by("a") == {"new"}


class TestCaching:
    def test_matrices_cached_between_queries(self, system):
        _build_agreeing_pair(system)
        assert system.one_step_matrix() is system.one_step_matrix()

    def test_writes_invalidate_cache(self, system):
        _build_agreeing_pair(system)
        before = system.one_step_matrix()
        system.record_vote("c", "f1", 0.9)
        assert system.one_step_matrix() is not before

    def test_manual_refresh_mode(self):
        system = MultiDimensionalReputationSystem(PURE_EXPLICIT,
                                                  auto_refresh=False)
        _build_agreeing_pair(system)
        stale = system.one_step_matrix()
        system.record_vote("c", "f1", 0.9)
        assert system.one_step_matrix() is stale  # still cached
        system.recompute()
        assert system.one_step_matrix() is not stale


class TestQueries:
    def test_user_reputation_pairwise(self, system):
        _build_agreeing_pair(system)
        assert system.user_reputation("a", "b") > 0.0
        assert system.user_reputation("a", "z") == 0.0

    def test_global_reputation_projection(self, system):
        _build_agreeing_pair(system)
        scores = system.global_reputation()
        assert scores["a"] > 0.0 and scores["b"] > 0.0

    def test_judge_file_accepts_good(self, system):
        _build_agreeing_pair(system)
        system.record_vote("b", "new-file", 0.95)
        judgement = system.judge_file("a", "new-file")
        assert judgement.accept

    def test_judge_file_rejects_bad(self, system):
        _build_agreeing_pair(system)
        system.record_vote("b", "bad-file", 0.05)
        judgement = system.judge_file("a", "bad-file")
        assert not judgement.accept

    def test_judge_unknown_file_is_blind(self, system):
        judgement = system.judge_file("a", "mystery")
        assert judgement.blind

    def test_effective_reputation_adds_credit_bonus(self, system):
        _build_agreeing_pair(system)
        base = system.user_reputation("a", "b")
        # b earns credits by voting a lot.
        for index in range(10):
            system.record_vote("b", f"extra-{index}", 0.9)
        assert system.effective_reputation("a", "b") > base

    def test_service_level_rewards_reputation(self, system):
        _build_agreeing_pair(system)
        system.record_rank("a", "c", 0.1)
        good = system.service_level("a", "b")
        stranger = system.service_level("a", "z")
        assert good.bandwidth_quota > stranger.bandwidth_quota
        assert good.queue_offset_seconds > stranger.queue_offset_seconds


class TestQueueOrdering:
    def test_trusted_requester_served_first(self, system):
        _build_agreeing_pair(system)
        ordered = system.order_request_queue(
            "a", [("z", 0.0), ("b", 10.0)])
        assert [requester for requester, _ in ordered] == ["b", "z"]

    def test_fifo_without_reputation(self, system):
        ordered = system.order_request_queue(
            "a", [("y", 5.0), ("z", 0.0)])
        assert [requester for requester, _ in ordered] == ["z", "y"]
