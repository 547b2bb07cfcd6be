"""Peer behaviour strategies.

The paper's mechanisms exist because peers are strategic: free-riders take
without giving, polluters push fake files, colluders inflate each other,
forgers copy a reputable user's evaluations, whitewashers shed bad history
by re-joining.  Each strategy is a :class:`PeerBehavior` subclass; the
simulation calls its hooks at the relevant lifecycle points.

All randomness flows through the simulation's seeded RNG, so behaviour mixes
are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .peers import Peer
    from .simulation import FileSharingSimulation

__all__ = [
    "PeerBehavior",
    "HonestBehavior",
    "LazyVoterBehavior",
    "FreeRiderBehavior",
    "PolluterBehavior",
    "ColluderBehavior",
    "ForgerBehavior",
    "WhitewasherBehavior",
]


def _clamp(value: float, low: float = 0.0, high: float = 1.0) -> float:
    return max(low, min(high, value))


@dataclass
class PeerBehavior:
    """Base behaviour: hooks default to fully honest, fully passive."""

    #: Probability of blacklisting the uploader of a detected fake.
    BLACKLIST_PROBABILITY = 0.5
    #: Standard deviation of the Gaussian noise added to honest votes.
    VOTE_NOISE = 0.1

    #: Probability of casting an explicit vote after judging a file.
    vote_probability: float = 0.3
    #: Probability of recognising a fake file after consuming it.
    detection_probability: float = 0.9
    #: Probability of ranking an uploader positively after a good download.
    rank_probability: float = 0.1

    #: Class label used in benchmark tables.
    label: str = "honest"

    # ------------------------------------------------------------------ #
    # Hooks                                                              #
    # ------------------------------------------------------------------ #

    def shares(self) -> bool:
        """Does this peer serve upload requests at all?"""
        return True

    def wants_fake_copy(self) -> bool:
        """Would this peer knowingly keep/serve fakes (polluters do)?"""
        return False

    def honest_vote(self, quality: float, rng: random.Random) -> float:
        """A noisy honest vote around the file's true quality."""
        return _clamp(quality + rng.gauss(0.0, self.VOTE_NOISE))

    def vote_value(self, quality: float, is_fake: bool,
                   rng: random.Random) -> float:
        """The vote this behaviour casts (honest by default)."""
        return self.honest_vote(quality, rng)

    def on_download_complete(self, simulation: "FileSharingSimulation",
                             peer: "Peer", file_id: str,
                             uploader_id: str) -> None:
        """Judge the downloaded file: keep/delete, vote, rank, blacklist."""
        rng = simulation.rng
        is_fake = simulation.registry.is_fake(file_id)
        quality = simulation.registry.quality(file_id)
        detected_fake = is_fake and rng.random() < self.detection_probability

        if detected_fake:
            simulation.peer_deletes_file(peer, file_id, fake_detected=True)
            if rng.random() < self.vote_probability:
                simulation.peer_votes(peer, file_id,
                                      self.vote_value(quality, True, rng))
            if rng.random() < self.BLACKLIST_PROBABILITY:
                simulation.peer_blacklists(peer, uploader_id)
            return

        # Kept (real, or an undetected fake).
        if rng.random() < self.vote_probability:
            simulation.peer_votes(peer, file_id,
                                  self.vote_value(quality, is_fake, rng))
        if rng.random() < self.rank_probability:
            simulation.peer_ranks(peer, uploader_id, rating=0.9)

    def on_periodic(self, simulation: "FileSharingSimulation",
                    peer: "Peer") -> None:
        """Called at every maintenance tick; default no-op."""


@dataclass
class HonestBehavior(PeerBehavior):
    """Shares, detects fakes reliably, votes honestly at the configured rate."""

    label: str = "honest"


@dataclass
class LazyVoterBehavior(PeerBehavior):
    """Honest in every respect except never voting or ranking.

    Isolates the explicit-evaluation coverage problem: with only lazy voters
    the system must rely on implicit (retention) evaluations.
    """

    vote_probability: float = 0.0
    rank_probability: float = 0.0
    label: str = "lazy-voter"


@dataclass
class FreeRiderBehavior(PeerBehavior):
    """Downloads but never uploads; votes rarely."""

    vote_probability: float = 0.05
    rank_probability: float = 0.0
    label: str = "free-rider"

    def shares(self) -> bool:
        return False


@dataclass
class PolluterBehavior(PeerBehavior):
    """Injects and serves fake files; praises fakes to prop them up.

    Polluters keep fakes (never delete), vote 1.0 on fakes and — to poison
    the evaluation space — vote dishonestly low on real files.
    """

    vote_probability: float = 0.6
    label: str = "polluter"

    def wants_fake_copy(self) -> bool:
        return True

    def vote_value(self, quality: float, is_fake: bool,
                   rng: random.Random) -> float:
        if is_fake:
            return 1.0
        return _clamp(rng.uniform(0.0, 0.2))

    def on_download_complete(self, simulation: "FileSharingSimulation",
                             peer: "Peer", file_id: str,
                             uploader_id: str) -> None:
        rng = simulation.rng
        is_fake = simulation.registry.is_fake(file_id)
        quality = simulation.registry.quality(file_id)
        # Polluters keep everything and vote strategically.
        if rng.random() < self.vote_probability:
            simulation.peer_votes(peer, file_id,
                                  self.vote_value(quality, is_fake, rng))


@dataclass
class CamouflagedPolluterBehavior(PolluterBehavior):
    """A polluter that votes *honestly on real files* to earn file trust.

    The strongest strategy against Eq. 2 similarity: agreeing with honest
    users everywhere except on its own fakes buys the attacker real
    reputation weight, which Eq. 9 then multiplies into its fake-praising
    votes.  The C8 benchmark sweeps this population share to find where the
    mechanism's fake identification breaks down.
    """

    label: str = "camouflaged"
    vote_probability: float = 0.6

    def vote_value(self, quality: float, is_fake: bool,
                   rng: random.Random) -> float:
        if is_fake:
            return 1.0
        return self.honest_vote(quality, rng)


@dataclass
class ColluderBehavior(PolluterBehavior):
    """A polluter that also boosts its clique with mutual top ratings."""

    label: str = "colluder"
    #: Peers in the same collusion clique (set by the scenario builder).
    clique: Optional[List[str]] = None

    def on_periodic(self, simulation: "FileSharingSimulation",
                    peer: "Peer") -> None:
        if not self.clique:
            return
        for member in self.clique:
            if member != peer.peer_id and simulation.is_online(member):
                simulation.peer_ranks(peer, member, rating=1.0)


@dataclass
class ForgerBehavior(PeerBehavior):
    """Copies a victim's votes to steal their trust (Section 4.2, attack 3).

    Whenever the victim has voted on a file the forger holds, the forger
    repeats that vote verbatim; otherwise it stays silent.  The proactive
    examination defence catches the inconsistency between such mirrored
    evaluations and the forger's actual behaviour.
    """

    label: str = "forger"
    victim_id: Optional[str] = None

    def on_download_complete(self, simulation: "FileSharingSimulation",
                             peer: "Peer", file_id: str,
                             uploader_id: str) -> None:
        if self.victim_id is None:
            return
        victim_vote = simulation.known_vote(self.victim_id, file_id)
        if victim_vote is not None:
            simulation.peer_votes(peer, file_id, victim_vote)

    def on_periodic(self, simulation: "FileSharingSimulation",
                    peer: "Peer") -> None:
        """Mirror any victim votes on files the forger holds, in file-id
        order (the holdings are a set)."""
        if self.victim_id is None:
            return
        for file_id in sorted(simulation.registry.files_of(peer.peer_id)):
            victim_vote = simulation.known_vote(self.victim_id, file_id)
            if victim_vote is not None:
                simulation.peer_votes(peer, file_id, victim_vote)


@dataclass
class WhitewasherBehavior(PolluterBehavior):
    """A polluter that re-joins under a fresh identity when caught.

    The peer sheds its identity once it has been blacklisted
    :attr:`REJOIN_THRESHOLD` times; the simulation assigns the new id.
    """

    REJOIN_THRESHOLD = 3

    label: str = "whitewasher"

    def on_periodic(self, simulation: "FileSharingSimulation",
                    peer: "Peer") -> None:
        if simulation.blacklist_count(peer.peer_id) >= self.REJOIN_THRESHOLD:
            simulation.whitewash(peer)
