"""Tests for repro.core.multitrust: Eq. 8 and the tier machinery."""

import pytest

from repro.core import (MultiTierView, ReputationConfig, TierAssignment,
                        TrustMatrix, compute_reputation_matrix,
                        global_reputation_vector)


@pytest.fixture
def chain():
    """a trusts b, b trusts c, c trusts d."""
    return TrustMatrix({"a": {"b": 1.0}, "b": {"c": 1.0}, "c": {"d": 1.0}})


class TestReputationMatrix:
    def test_one_step_is_the_one_step_matrix(self, chain):
        rm = compute_reputation_matrix(chain, steps=1)
        assert rm == chain

    def test_two_steps_reach_friends_of_friends(self, chain):
        rm = compute_reputation_matrix(chain, steps=2)
        assert rm.get("a", "c") == pytest.approx(1.0)
        assert not rm.has_edge("a", "b")

    def test_config_steps_used_by_default(self, chain):
        config = ReputationConfig(multitrust_steps=3)
        rm = compute_reputation_matrix(chain, config=config)
        assert rm.get("a", "d") == pytest.approx(1.0)

    def test_explicit_steps_override_config(self, chain):
        config = ReputationConfig(multitrust_steps=3)
        rm = compute_reputation_matrix(chain, steps=1, config=config)
        assert rm == chain

    def test_weights_split_along_paths(self):
        matrix = TrustMatrix({"a": {"b": 0.5, "c": 0.5},
                              "b": {"d": 1.0}, "c": {"d": 1.0}})
        rm = compute_reputation_matrix(matrix, steps=2)
        # Both 2-step paths a->b->d and a->c->d combine.
        assert rm.get("a", "d") == pytest.approx(1.0)


class TestMultiTierView:
    def test_tier_one_is_direct_trust(self, chain):
        view = MultiTierView(chain, max_tier=3)
        assignment = view.assign("a", "b")
        assert assignment.tier == 1
        assert assignment.value == pytest.approx(1.0)

    def test_deeper_tiers(self, chain):
        view = MultiTierView(chain, max_tier=3)
        assert view.assign("a", "c").tier == 2
        assert view.assign("a", "d").tier == 3

    def test_unreachable_target(self, chain):
        view = MultiTierView(chain, max_tier=2)
        assignment = view.assign("a", "d")
        assert assignment.tier is None
        assert assignment.value == 0.0

    def test_first_tier_wins_over_deeper_paths(self):
        matrix = TrustMatrix({"a": {"b": 0.5, "c": 0.5}, "b": {"c": 1.0}})
        view = MultiTierView(matrix, max_tier=2)
        # c is reachable at tier 1 directly even though a 2-step path exists.
        assert view.assign("a", "c").tier == 1

    def test_tier_matrix_bounds(self, chain):
        view = MultiTierView(chain, max_tier=2)
        with pytest.raises(ValueError):
            view.tier_matrix(0)
        with pytest.raises(ValueError):
            view.tier_matrix(3)

    def test_max_tier_validation(self, chain):
        with pytest.raises(ValueError):
            MultiTierView(chain, max_tier=0)

    def test_rank_requesters_tier_then_value(self):
        """The paper's rule: smaller tier first; within a tier, higher value."""
        matrix = TrustMatrix({
            "u": {"friend_strong": 0.7, "friend_weak": 0.3},
            "friend_strong": {"fof": 1.0},
        })
        view = MultiTierView(matrix, max_tier=2)
        ranked = view.rank_requesters(
            "u", ["fof", "friend_weak", "friend_strong", "stranger"])
        assert [a.target for a in ranked] == [
            "friend_strong", "friend_weak", "fof", "stranger"]

    def test_sort_key_handles_unreachable(self):
        reachable = TierAssignment("x", tier=2, value=0.1)
        unreachable = TierAssignment("y", tier=None, value=0.0)
        assert reachable.sort_key() < unreachable.sort_key()


class TestGlobalReputation:
    def test_column_mean_projection(self):
        matrix = TrustMatrix({"a": {"c": 1.0}, "b": {"c": 0.5}})
        scores = global_reputation_vector(matrix, observers=["a", "b"])
        assert scores["c"] == pytest.approx(0.75)

    def test_default_observers_are_all_nodes(self):
        matrix = TrustMatrix({"a": {"b": 1.0}})
        scores = global_reputation_vector(matrix)
        # Observers = {a, b}; only b receives trust.
        assert scores == {"b": pytest.approx(0.5)}

    def test_empty_matrix(self):
        assert global_reputation_vector(TrustMatrix()) == {}
