"""Tests for the Lian multi-trust, LIP and Credence baselines."""

import pytest

from repro.baselines import (CredenceMechanism, LianMultiTrustMechanism,
                             LIPMechanism)

DAY = 24 * 3600.0


class TestLianMultiTrust:
    def test_tier_one_for_direct_uploader(self):
        mechanism = LianMultiTrustMechanism()
        mechanism.record_download("a", "b", "f1", 100.0)
        assert mechanism.assign_tier("a", "b").tier == 1

    def test_tier_two_for_friend_of_friend(self):
        mechanism = LianMultiTrustMechanism()
        mechanism.record_download("a", "b", "f1", 100.0)
        mechanism.record_download("b", "c", "f2", 100.0)
        assert mechanism.assign_tier("a", "c").tier == 2

    def test_unreachable_scores_zero(self):
        mechanism = LianMultiTrustMechanism()
        mechanism.record_download("a", "b", "f1", 100.0)
        assert mechanism.reputation("a", "z") == 0.0

    def test_lower_tier_always_outranks_deeper(self):
        mechanism = LianMultiTrustMechanism()
        mechanism.record_download("a", "direct", "f1", 1.0)  # tiny volume
        mechanism.record_download("a", "hub", "f2", 1000.0)
        mechanism.record_download("hub", "fof", "f3", 1000.0)
        assert (mechanism.reputation("a", "direct")
                > mechanism.reputation("a", "fof"))

    def test_within_tier_ranked_by_volume(self):
        mechanism = LianMultiTrustMechanism()
        mechanism.record_download("a", "big", "f1", 900.0)
        mechanism.record_download("a", "small", "f2", 100.0)
        assert (mechanism.reputation("a", "big")
                > mechanism.reputation("a", "small"))

    def test_single_dimension_matrix_is_volume_only(self):
        """The C5 premise: Lian's one-step matrix is download traffic only."""
        mechanism = LianMultiTrustMechanism()
        mechanism.record_download("a", "b", "f1", 100.0)
        matrix = mechanism.one_step_matrix()
        assert matrix.get("a", "b") == pytest.approx(1.0)
        assert matrix.entry_count() == 1


class TestLIP:
    def test_unknown_file_has_no_score(self):
        assert LIPMechanism().file_score("me", "mystery") is None

    def test_long_lived_popular_file_scores_high(self):
        mechanism = LIPMechanism()
        for day in range(20):
            mechanism.record_download(f"d{day}", "seed", "real-file",
                                      100.0, timestamp=day * DAY)
        score = mechanism.file_score("me", "real-file")
        assert score is not None and score > 0.6

    def test_heavily_deleted_file_scores_low(self):
        mechanism = LIPMechanism()
        for index in range(10):
            mechanism.record_download(f"d{index}", "seed", "fake-file",
                                      100.0, timestamp=float(index))
            mechanism.record_deletion(f"d{index}", "fake-file",
                                      timestamp=float(index) + 1)
        score = mechanism.file_score("me", "fake-file")
        assert score is not None and score < 0.2

    def test_small_owner_count_weakness(self):
        """The paper's critique: LIP 'cannot identify the quality of a file
        accurately when its number of owners is too small'. A brand-new real
        file with one owner scores no better than a new fake."""
        mechanism = LIPMechanism()
        mechanism.record_download("d0", "seed", "new-real", 10.0, timestamp=0.0)
        mechanism.record_download("d1", "seed", "new-fake", 10.0, timestamp=0.0)
        real_score = mechanism.file_score("me", "new-real")
        fake_score = mechanism.file_score("me", "new-fake")
        assert real_score == pytest.approx(fake_score)

    def test_no_user_reputation(self):
        assert LIPMechanism().reputation("a", "b") == 0.0

    def test_owner_count(self):
        mechanism = LIPMechanism()
        mechanism.record_download("a", "b", "f", 1.0)
        assert mechanism.owner_count("f") == 2
        mechanism.record_deletion("a", "f")
        assert mechanism.owner_count("f") == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LIPMechanism(lifetime_scale_seconds=0.0)


class TestCredence:
    def _agreeing_pair(self, mechanism, a="a", b="b", n=4):
        for index in range(n):
            vote = 1.0 if index % 2 == 0 else 0.0
            mechanism.record_vote(a, f"f{index}", vote)
            mechanism.record_vote(b, f"f{index}", vote)

    def test_agreeing_voters_have_positive_correlation(self):
        mechanism = CredenceMechanism()
        self._agreeing_pair(mechanism)
        assert mechanism.correlation("a", "b") == pytest.approx(1.0)

    def test_opposed_voters_have_negative_correlation(self):
        mechanism = CredenceMechanism()
        for index in range(4):
            vote = 1.0 if index % 2 == 0 else 0.0
            mechanism.record_vote("a", f"f{index}", vote)
            mechanism.record_vote("b", f"f{index}", 1.0 - vote)
        assert mechanism.correlation("a", "b") == pytest.approx(-1.0)

    def test_insufficient_overlap_gives_none(self):
        mechanism = CredenceMechanism()
        mechanism.record_vote("a", "f0", 1.0)
        mechanism.record_vote("b", "f0", 1.0)
        assert mechanism.correlation("a", "b") is None

    def test_negative_correlation_clamped_in_reputation(self):
        mechanism = CredenceMechanism()
        for index in range(4):
            vote = 1.0 if index % 2 == 0 else 0.0
            mechanism.record_vote("a", f"f{index}", vote)
            mechanism.record_vote("b", f"f{index}", 1.0 - vote)
        assert mechanism.reputation("a", "b") == 0.0

    def test_degenerate_all_same_votes_count_as_agreement(self):
        mechanism = CredenceMechanism()
        for index in range(3):
            mechanism.record_vote("a", f"f{index}", 1.0)
            mechanism.record_vote("b", f"f{index}", 1.0)
        assert mechanism.correlation("a", "b") == pytest.approx(1.0)

    def test_file_score_weighted_by_correlation(self):
        mechanism = CredenceMechanism()
        self._agreeing_pair(mechanism, "me", "friend")
        mechanism.record_vote("friend", "new-file", 1.0)
        mechanism.record_vote("stranger", "new-file", 0.0)
        score = mechanism.file_score("me", "new-file")
        assert score == pytest.approx(1.0)  # stranger carries no weight

    def test_file_score_none_without_correlated_voters(self):
        mechanism = CredenceMechanism()
        mechanism.record_vote("stranger", "f", 1.0)
        assert mechanism.file_score("me", "f") is None

    def test_vote_count(self):
        mechanism = CredenceMechanism()
        mechanism.record_vote("a", "f1", 1.0)
        mechanism.record_vote("a", "f2", 0.0)
        assert mechanism.vote_count("a") == 2
