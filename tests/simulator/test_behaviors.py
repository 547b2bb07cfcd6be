"""Tests for repro.simulator.behaviors via a recording stub simulation."""

import random
import statistics

import pytest

from repro.simulator import (ColluderBehavior, ForgerBehavior,
                             FreeRiderBehavior, HonestBehavior,
                             LazyVoterBehavior, Peer, PeerBehavior,
                             PolluterBehavior, WhitewasherBehavior)

NOISE = PeerBehavior.VOTE_NOISE


class _ReverseOrderSet(frozenset):
    """A set that iterates its ids in reverse order, whatever the hash seed,
    so a caller that must sort its holdings cannot pass without sorting."""

    def __iter__(self):
        return iter(sorted(frozenset.__iter__(self), reverse=True))


class StubSimulation:
    """Records the helper calls behaviours make."""

    def __init__(self, fake_files=(), qualities=None, votes=None, seed=0,
                 holdings=None):
        self.rng = random.Random(seed)
        self._holdings = holdings or {}
        self._fake = set(fake_files)
        self._qualities = qualities or {}
        self._votes = dict(votes or {})
        self.voted = []
        self.deleted = []
        self.blacklisted = []
        self.ranked = []
        self.whitewashed = []
        self._online = set()
        self._blacklist_counts = {}
        self.registry = self

    # registry surface used by behaviours
    def is_fake(self, file_id):
        return file_id in self._fake

    def quality(self, file_id):
        return self._qualities.get(file_id, 0.0 if file_id in self._fake else 0.9)

    def files_of(self, peer_id):
        return _ReverseOrderSet(self._holdings.get(peer_id, ()))

    # simulation helper surface
    def peer_votes(self, peer, file_id, vote):
        self.voted.append((peer.peer_id, file_id, vote))

    def peer_deletes_file(self, peer, file_id, fake_detected=False):
        self.deleted.append((peer.peer_id, file_id))

    def peer_blacklists(self, peer, target):
        self.blacklisted.append((peer.peer_id, target))

    def peer_ranks(self, peer, target, rating):
        self.ranked.append((peer.peer_id, target, rating))

    def known_vote(self, user_id, file_id):
        return self._votes.get((user_id, file_id))

    def is_online(self, peer_id):
        return peer_id in self._online

    def set_online(self, *peer_ids):
        self._online.update(peer_ids)

    def blacklist_count(self, peer_id):
        return self._blacklist_counts.get(peer_id, 0)

    def whitewash(self, peer):
        self.whitewashed.append(peer.peer_id)


def _peer(behavior, peer_id="p"):
    return Peer(peer_id, behavior)


class TestHonestBehavior:
    def test_detects_and_deletes_fake(self):
        sim = StubSimulation(fake_files={"fake"}, seed=1)
        behavior = HonestBehavior(detection_probability=1.0,
                                  vote_probability=0.0)
        behavior.on_download_complete(sim, _peer(behavior), "fake", "up")
        assert sim.deleted == [("p", "fake")]

    def test_blacklists_fake_uploader(self):
        # Each detected fake blacklists its uploader with probability 0.5.
        blacklisted = 0
        for seed in range(400):
            sim = StubSimulation(fake_files={"fake"}, seed=seed)
            behavior = HonestBehavior(detection_probability=1.0,
                                      vote_probability=0.0)
            behavior.on_download_complete(sim, _peer(behavior), "fake", "up")
            assert sim.blacklisted in ([], [("p", "up")])
            blacklisted += len(sim.blacklisted)
        assert PeerBehavior.BLACKLIST_PROBABILITY == 0.5
        assert 160 <= blacklisted <= 240

    def test_keeps_real_file(self):
        sim = StubSimulation(seed=1)
        behavior = HonestBehavior(vote_probability=0.0, rank_probability=0.0)
        behavior.on_download_complete(sim, _peer(behavior), "real", "up")
        assert sim.deleted == []

    def test_votes_near_quality(self):
        votes = []
        for seed in range(400):
            sim = StubSimulation(qualities={"real": 0.5}, seed=seed)
            behavior = HonestBehavior(vote_probability=1.0,
                                      rank_probability=0.0)
            behavior.on_download_complete(sim, _peer(behavior), "real", "up")
            assert len(sim.voted) == 1
            votes.append(sim.voted[0][2])
        # Gaussian noise of standard deviation 0.1 around the quality.
        assert NOISE == 0.1
        assert statistics.mean(votes) == pytest.approx(0.5, abs=0.02)
        assert statistics.stdev(votes) == pytest.approx(NOISE, abs=0.015)

    def test_ranks_uploader_sometimes(self):
        sim = StubSimulation(seed=3)
        behavior = HonestBehavior(vote_probability=0.0, rank_probability=1.0)
        behavior.on_download_complete(sim, _peer(behavior), "real", "up")
        assert sim.ranked == [("p", "up", 0.9)]

    def test_missed_detection_keeps_fake(self):
        sim = StubSimulation(fake_files={"fake"}, seed=1)
        behavior = HonestBehavior(detection_probability=0.0,
                                  vote_probability=0.0, rank_probability=0.0)
        behavior.on_download_complete(sim, _peer(behavior), "fake", "up")
        assert sim.deleted == []


class TestLazyVoter:
    def test_never_votes_or_ranks(self):
        sim = StubSimulation(seed=1)
        behavior = LazyVoterBehavior()
        behavior.on_download_complete(sim, _peer(behavior), "real", "up")
        assert sim.voted == [] and sim.ranked == []

    def test_still_deletes_fakes(self):
        sim = StubSimulation(fake_files={"fake"}, seed=1)
        behavior = LazyVoterBehavior(detection_probability=1.0)
        behavior.on_download_complete(sim, _peer(behavior), "fake", "up")
        assert sim.deleted == [("p", "fake")]


class TestFreeRider:
    def test_does_not_share(self):
        assert not FreeRiderBehavior().shares()

    def test_honest_peer_shares(self):
        assert HonestBehavior().shares()


class TestPolluter:
    def test_keeps_fakes(self):
        sim = StubSimulation(fake_files={"fake"}, seed=1)
        behavior = PolluterBehavior(vote_probability=0.0)
        behavior.on_download_complete(sim, _peer(behavior), "fake", "up")
        assert sim.deleted == []

    def test_praises_fakes(self):
        sim = StubSimulation(fake_files={"fake"}, seed=1)
        behavior = PolluterBehavior(vote_probability=1.0)
        behavior.on_download_complete(sim, _peer(behavior), "fake", "up")
        assert sim.voted[0][2] == 1.0

    def test_disparages_real_files(self):
        sim = StubSimulation(seed=1)
        behavior = PolluterBehavior(vote_probability=1.0)
        behavior.on_download_complete(sim, _peer(behavior), "real", "up")
        assert sim.voted[0][2] <= 0.2

    def test_wants_fake_copies(self):
        assert PolluterBehavior().wants_fake_copy()
        assert not HonestBehavior().wants_fake_copy()


class TestColluder:
    def test_boosts_clique_members(self):
        sim = StubSimulation(seed=1)
        behavior = ColluderBehavior(clique=["c1", "c2", "c3"])
        sim.set_online("c2", "c3")
        behavior.on_periodic(sim, _peer(behavior, "c1"))
        assert ("c1", "c2", 1.0) in sim.ranked
        assert ("c1", "c3", 1.0) in sim.ranked

    def test_skips_self_and_offline(self):
        sim = StubSimulation(seed=1)
        behavior = ColluderBehavior(clique=["c1", "c2"])
        behavior.on_periodic(sim, _peer(behavior, "c1"))  # c2 offline
        assert sim.ranked == []

    def test_no_clique_is_noop(self):
        sim = StubSimulation(seed=1)
        ColluderBehavior().on_periodic(sim, _peer(ColluderBehavior(), "c1"))
        assert sim.ranked == []


class TestForger:
    def test_mirrors_victim_vote(self):
        sim = StubSimulation(votes={("victim", "f"): 0.77}, seed=1)
        behavior = ForgerBehavior(victim_id="victim")
        behavior.on_download_complete(sim, _peer(behavior), "f", "up")
        assert sim.voted == [("p", "f", 0.77)]

    def test_silent_when_victim_has_not_voted(self):
        sim = StubSimulation(seed=1)
        behavior = ForgerBehavior(victim_id="victim")
        behavior.on_download_complete(sim, _peer(behavior), "f", "up")
        assert sim.voted == []

    def test_periodic_mirrors_held_files_in_file_id_order(self):
        held = ["f3", "f10", "f1", "unvoted", "f2"]
        votes = {("victim", file_id): 0.1 * rank
                 for rank, file_id in enumerate(["f3", "f10", "f1", "f2"], 1)}
        sim = StubSimulation(votes=votes, holdings={"p": held}, seed=1)
        behavior = ForgerBehavior(victim_id="victim")
        behavior.on_periodic(sim, _peer(behavior))
        assert sim.voted == [("p", file_id, votes[("victim", file_id)])
                             for file_id in ("f1", "f10", "f2", "f3")]

    def test_no_victim_is_noop(self):
        sim = StubSimulation(seed=1)
        behavior = ForgerBehavior()
        behavior.on_download_complete(sim, _peer(behavior), "f", "up")
        behavior.on_periodic(sim, _peer(behavior))
        assert sim.voted == []


class TestWhitewasher:
    def test_rejoins_after_enough_blacklistings(self):
        sim = StubSimulation(seed=1)
        sim._blacklist_counts["p"] = WhitewasherBehavior.REJOIN_THRESHOLD
        behavior = WhitewasherBehavior()
        behavior.on_periodic(sim, _peer(behavior))
        assert sim.whitewashed == ["p"]

    def test_stays_below_threshold(self):
        sim = StubSimulation(seed=1)
        sim._blacklist_counts["p"] = WhitewasherBehavior.REJOIN_THRESHOLD - 1
        behavior = WhitewasherBehavior()
        behavior.on_periodic(sim, _peer(behavior))
        assert sim.whitewashed == []


class TestCamouflagedPolluter:
    def test_votes_honestly_on_real_files(self):
        from repro.simulator import CamouflagedPolluterBehavior
        sim = StubSimulation(qualities={"real": 0.8}, seed=2)
        behavior = CamouflagedPolluterBehavior(vote_probability=1.0)
        behavior.on_download_complete(sim, _peer(behavior), "real", "up")
        # An honest noisy vote, not a polluter's disparaging one (<= 0.2).
        assert sim.voted[0][2] == pytest.approx(0.8, abs=3 * NOISE)

    def test_still_praises_fakes(self):
        from repro.simulator import CamouflagedPolluterBehavior
        sim = StubSimulation(fake_files={"fake"}, seed=2)
        behavior = CamouflagedPolluterBehavior(vote_probability=1.0)
        behavior.on_download_complete(sim, _peer(behavior), "fake", "up")
        assert sim.voted[0][2] == 1.0

    def test_keeps_fakes_like_a_polluter(self):
        from repro.simulator import CamouflagedPolluterBehavior
        sim = StubSimulation(fake_files={"fake"}, seed=2)
        behavior = CamouflagedPolluterBehavior(vote_probability=0.0)
        behavior.on_download_complete(sim, _peer(behavior), "fake", "up")
        assert sim.deleted == []
        assert behavior.wants_fake_copy()
