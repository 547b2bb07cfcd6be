"""Unit tests for FileSharingSimulation's internal decision logic."""

import pytest

from repro.baselines import NullMechanism
from repro.baselines.base import ReputationMechanism
from repro.simulator import (FileSharingSimulation, ScenarioSpec,
                             SimulationConfig)

DAY = 24 * 3600.0


class ScriptedMechanism(ReputationMechanism):
    """Reputation and distrust fully controlled by the test."""

    name = "scripted"

    def __init__(self, reputations=None, distrusted=None):
        self._reputations = dict(reputations or {})
        self._distrusted = set(distrusted or ())

    def reputation(self, observer, target):
        return self._reputations.get((observer, target), 0.0)

    def is_distrusted(self, observer, target):
        return (observer, target) in self._distrusted


def _simulation(mechanism, **overrides):
    defaults = dict(
        scenario=ScenarioSpec(honest=6),
        duration_seconds=DAY, num_files=10, request_rate=0.001, seed=3)
    defaults.update(overrides)
    return FileSharingSimulation(SimulationConfig(**defaults), mechanism)


class TestServiceFactor:
    def test_uninformed_observer_is_unknown(self):
        simulation = _simulation(NullMechanism())
        factor, known = simulation._service_factor("honest-0000",
                                                   "honest-0001")
        assert factor == 0.0 and not known

    def test_distrusted_target_gets_zero_known(self):
        mechanism = ScriptedMechanism(
            reputations={("honest-0000", "honest-0002"): 1.0},
            distrusted={("honest-0000", "honest-0001")})
        simulation = _simulation(mechanism)
        factor, known = simulation._service_factor("honest-0000",
                                                   "honest-0001")
        assert factor == 0.0 and known

    def test_unknown_target_under_informed_observer_is_newcomer(self):
        mechanism = ScriptedMechanism(
            reputations={("honest-0000", "honest-0002"): 1.0})
        simulation = _simulation(mechanism)
        factor, known = simulation._service_factor("honest-0000",
                                                   "honest-0001")
        assert factor == simulation.NEWCOMER_FACTOR and known

    def test_factor_normalised_by_best(self):
        mechanism = ScriptedMechanism(reputations={
            ("honest-0000", "honest-0001"): 0.25,
            ("honest-0000", "honest-0002"): 0.5,
        })
        simulation = _simulation(mechanism)
        factor, _ = simulation._service_factor("honest-0000", "honest-0001")
        assert factor == pytest.approx(0.5)

    def test_factor_clamped_at_one(self):
        mechanism = ScriptedMechanism(reputations={
            ("honest-0000", "honest-0001"): 2.0,
            ("honest-0000", "honest-0002"): 1.0,
        })
        simulation = _simulation(mechanism)
        factor, _ = simulation._service_factor("honest-0000", "honest-0001")
        assert factor == 1.0


class TestQueueOffset:
    def test_zero_when_differentiation_disabled(self):
        mechanism = ScriptedMechanism(
            reputations={("honest-0000", "honest-0001"): 1.0})
        simulation = _simulation(mechanism,
                                 use_service_differentiation=False)
        assert simulation._queue_offset("honest-0000", "honest-0001") == 0.0

    def test_offset_scales_with_factor(self):
        mechanism = ScriptedMechanism(reputations={
            ("honest-0000", "honest-0001"): 0.5,
            ("honest-0000", "honest-0002"): 1.0,
        })
        simulation = _simulation(mechanism)
        offset = simulation._queue_offset("honest-0000", "honest-0001")
        assert offset == pytest.approx(
            0.5 * FileSharingSimulation.MAX_QUEUE_OFFSET_SECONDS)

    def test_uninformed_uploader_gives_no_offset(self):
        simulation = _simulation(NullMechanism())
        assert simulation._queue_offset("honest-0000", "honest-0001") == 0.0


class TestChooseUploader:
    def _setup_holders(self, simulation, file_id, holders):
        for holder in holders:
            simulation.peers[holder].online = True
            if not simulation.registry.holds(holder, file_id):
                simulation.registry.add_copy(holder, file_id, 0.0)

    def test_prefers_high_reputation_holder(self):
        mechanism = ScriptedMechanism(reputations={
            ("honest-0000", "honest-0001"): 1.0,
            ("honest-0000", "honest-0002"): 0.1,
        })
        simulation = _simulation(mechanism)
        file_id = simulation.catalog.files[0].file_id
        self._setup_holders(simulation, file_id,
                            ["honest-0001", "honest-0002"])
        chosen = simulation._choose_uploader("honest-0000", file_id)
        assert chosen == "honest-0001"

    def test_avoids_distrusted_holder(self):
        mechanism = ScriptedMechanism(
            distrusted={("honest-0000", "honest-0001")})
        simulation = _simulation(mechanism)
        file_id = simulation.catalog.files[0].file_id
        self._setup_holders(simulation, file_id,
                            ["honest-0001", "honest-0002"])
        chosen = simulation._choose_uploader("honest-0000", file_id)
        assert chosen == "honest-0002"

    def test_none_when_no_online_holder(self):
        simulation = _simulation(NullMechanism())
        file_id = simulation.catalog.files[0].file_id
        for peer in simulation.peers.values():
            peer.online = False
        assert simulation._choose_uploader("honest-0000", file_id) is None

    def test_requester_never_chosen(self):
        simulation = _simulation(NullMechanism())
        file_id = simulation.catalog.files[0].file_id
        self._setup_holders(simulation, file_id, ["honest-0000"])
        assert simulation._choose_uploader("honest-0000", file_id) is None


class TestWhitewashInternals:
    def test_whitewash_drops_holdings_and_identity(self):
        simulation = _simulation(NullMechanism())
        peer = simulation.peers["honest-0000"]
        peer.online = True
        file_id = simulation.catalog.files[0].file_id
        if not simulation.registry.holds(peer.peer_id, file_id):
            simulation.registry.add_copy(peer.peer_id, file_id, 0.0)
        fresh = simulation.whitewash(peer)
        assert not peer.online
        assert fresh.online
        assert simulation.registry.files_of(peer.peer_id) == set()
        assert fresh.previous_identities == [peer.peer_id]

    def test_whitewash_resets_blacklist_count(self):
        simulation = _simulation(NullMechanism())
        peer = simulation.peers["honest-0000"]
        simulation._blacklist_counts[peer.peer_id] = 5
        fresh = simulation.whitewash(peer)
        assert simulation.blacklist_count(fresh.peer_id) == 0
