"""Tests for repro.core.user_trust: Eq. 6, friends and blacklists."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UserTrustStore, build_user_trust_matrix
from repro.core.user_trust import FRIEND_TRUST


class TestRatings:
    def test_rate_and_read(self):
        store = UserTrustStore()
        store.rate("a", "b", 0.7)
        assert store.trust("a", "b") == 0.7

    def test_unknown_relationship_is_none(self):
        assert UserTrustStore().trust("a", "b") is None

    def test_self_rating_rejected(self):
        with pytest.raises(ValueError):
            UserTrustStore().rate("a", "a", 0.5)

    def test_out_of_range_rating_rejected(self):
        with pytest.raises(ValueError):
            UserTrustStore().rate("a", "b", 1.5)

    def test_rating_overwrites(self):
        store = UserTrustStore()
        store.rate("a", "b", 0.2)
        store.rate("a", "b", 0.9)
        assert store.trust("a", "b") == 0.9

    def test_rank_count(self):
        store = UserTrustStore()
        store.rate("a", "b", 0.5)
        store.add_friend("a", "c")
        store.add_to_blacklist("a", "d")
        assert store.rank_count("a") == 3


class TestFriendsAndBlacklists:
    def test_friend_gets_large_trust(self):
        # "a user's friends ... should be assigned with a large UT".
        store = UserTrustStore()
        store.add_friend("a", "b")
        assert store.trust("a", "b") == FRIEND_TRUST

    def test_blacklisted_gets_zero(self):
        # "the users in the blacklist ... should be assigned with zero".
        store = UserTrustStore()
        store.rate("a", "b", 0.9)
        store.add_to_blacklist("a", "b")
        assert store.trust("a", "b") == 0.0

    def test_blacklist_dominates_friendship_history(self):
        store = UserTrustStore()
        store.add_friend("a", "b")
        store.add_to_blacklist("a", "b")
        assert store.trust("a", "b") == 0.0
        assert not store.is_friend("a", "b")

    def test_friendship_revokes_blacklist(self):
        store = UserTrustStore()
        store.add_to_blacklist("a", "b")
        store.add_friend("a", "b")
        assert store.trust("a", "b") == FRIEND_TRUST
        assert not store.is_blacklisted("a", "b")

    def test_remove_friend_falls_back_to_rating(self):
        store = UserTrustStore()
        store.rate("a", "b", 0.4)
        store.add_friend("a", "b")
        store.remove_friend("a", "b")
        assert store.trust("a", "b") == 0.4

    def test_remove_from_blacklist(self):
        store = UserTrustStore()
        store.add_to_blacklist("a", "b")
        store.remove_from_blacklist("a", "b")
        assert store.trust("a", "b") is None

    def test_self_friend_rejected(self):
        with pytest.raises(ValueError):
            UserTrustStore().add_friend("a", "a")

    def test_self_blacklist_rejected(self):
        with pytest.raises(ValueError):
            UserTrustStore().add_to_blacklist("a", "a")

    def test_friends_of_and_blacklist_of(self):
        store = UserTrustStore()
        store.add_friend("a", "b")
        store.add_to_blacklist("a", "c")
        assert store.friends_of("a") == {"b"}
        assert store.blacklist_of("a") == {"c"}


class TestRelationships:
    def test_relationships_of_merges_all_sources(self):
        store = UserTrustStore()
        store.rate("a", "b", 0.5)
        store.add_friend("a", "c")
        store.add_to_blacklist("a", "d")
        relationships = store.relationships_of("a")
        assert relationships == {"b": 0.5, "c": FRIEND_TRUST, "d": 0.0}

    def test_raters_includes_all_relationship_kinds(self):
        store = UserTrustStore()
        store.rate("a", "b", 0.5)
        store.add_friend("c", "d")
        store.add_to_blacklist("e", "f")
        assert store.raters() == {"a", "c", "e"}


_USERS = ["a", "b", "c", "d", "e"]
_ACTIONS = st.lists(st.tuples(
    st.sampled_from(["rate", "add_friend", "add_to_blacklist",
                     "remove_friend", "remove_from_blacklist"]),
    st.sampled_from(_USERS), st.sampled_from(_USERS),
    st.floats(min_value=0.0, max_value=1.0)), max_size=40)


class TestIndexByRater:
    """The per-rater index of ratees answers what a scan of every rating
    answered, in the same sorted order."""

    @given(actions=_ACTIONS)
    @settings(max_examples=100, deadline=None)
    def test_index_agrees_with_a_full_scan(self, actions):
        store = UserTrustStore()
        for action, user, other, rating in actions:
            if user == other:
                continue
            if action == "rate":
                store.rate(user, other, rating)
            else:
                getattr(store, action)(user, other)
        ratings = store._ratings
        assert store.raters() == ({rater for rater, _ in ratings}
                                  | set(store._friends)
                                  | set(store._blacklists))
        for user in _USERS:
            targets = ({ratee for rater, ratee in ratings if rater == user}
                       | store.friends_of(user) | store.blacklist_of(user))
            scanned = {other: store.trust(user, other)
                       for other in sorted(targets)}
            assert (list(store.relationships_of(user).items())
                    == [(other, value) for other, value in scanned.items()
                        if value is not None])
            assert store.rank_count(user) == (
                sum(1 for rater, _ in ratings if rater == user)
                + len(store.friends_of(user))
                + len(store.blacklist_of(user)))


class TestUserTrustMatrix:
    def test_eq6_normalization(self):
        store = UserTrustStore()
        store.rate("a", "b", 0.6)
        store.rate("a", "c", 0.2)
        matrix = build_user_trust_matrix(store)
        assert matrix.get("a", "b") == pytest.approx(0.75)
        assert matrix.get("a", "c") == pytest.approx(0.25)

    def test_blacklisted_users_vanish(self):
        store = UserTrustStore()
        store.rate("a", "b", 0.6)
        store.add_to_blacklist("a", "c")
        matrix = build_user_trust_matrix(store)
        assert matrix.get("a", "b") == pytest.approx(1.0)
        assert not matrix.has_edge("a", "c")

    def test_friends_and_ratings_mix(self):
        store = UserTrustStore()
        store.add_friend("a", "b")       # 1.0
        store.rate("a", "c", 0.5)
        matrix = build_user_trust_matrix(store)
        assert matrix.get("a", "b") == pytest.approx(1.0 / 1.5)
        assert matrix.get("a", "c") == pytest.approx(0.5 / 1.5)

    def test_all_blacklist_row_is_empty(self):
        store = UserTrustStore()
        store.add_to_blacklist("a", "b")
        matrix = build_user_trust_matrix(store)
        assert matrix.row("a") == {}

    def test_empty_store_empty_matrix(self):
        assert build_user_trust_matrix(UserTrustStore()).entry_count() == 0
