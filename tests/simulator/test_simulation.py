"""Tests for repro.simulator.simulation: the wired-up system."""

import pytest

from repro.baselines import MultiDimensionalMechanism, NullMechanism
from repro.core import ReputationConfig
from repro.simulator import (ChurnModel, FileSharingSimulation, ScenarioSpec,
                             SimulationConfig)

DAY = 24 * 3600.0


def _config(**overrides):
    defaults = dict(
        scenario=ScenarioSpec(honest=20, free_riders=3, polluters=3),
        duration_seconds=1 * DAY,
        num_files=60,
        request_rate=0.02,
        seed=11,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestConfigValidation:
    def test_needs_two_peers(self):
        with pytest.raises(ValueError):
            SimulationConfig(scenario=ScenarioSpec(honest=1))

    def test_positive_duration(self):
        with pytest.raises(ValueError):
            SimulationConfig(duration_seconds=0.0)

    def test_scenario_total(self):
        scenario = ScenarioSpec(honest=5, polluters=2, colluders=3)
        assert scenario.total() == 10


class TestPopulation:
    def test_population_matches_scenario(self):
        simulation = FileSharingSimulation(_config())
        labels = [peer.label for peer in simulation.peers.values()]
        assert labels.count("honest") == 20
        assert labels.count("free-rider") == 3
        assert labels.count("polluter") == 3

    def test_colluders_form_cliques(self):
        config = _config(scenario=ScenarioSpec(honest=5, colluders=6))
        simulation = FileSharingSimulation(config)
        cliques = {tuple(peer.behavior.clique)
                   for peer in simulation.peers.values()
                   if peer.label == "colluder"}
        assert len(cliques) == 2  # 6 colluders / clique_size 5 -> 5 + 1...

    def test_forgers_get_victims(self):
        config = _config(scenario=ScenarioSpec(honest=5, forgers=2))
        simulation = FileSharingSimulation(config)
        for peer in simulation.peers.values():
            if peer.label == "forger":
                assert peer.behavior.victim_id is not None
                assert peer.behavior.victim_id.startswith("honest")

    def test_initial_replicas_seeded(self):
        simulation = FileSharingSimulation(_config())
        for catalog_file in simulation.catalog:
            assert len(simulation.registry.holders(catalog_file.file_id)) >= 1

    def test_fakes_seeded_at_fake_friendly_peers(self):
        simulation = FileSharingSimulation(_config())
        polluter_ids = {pid for pid, peer in simulation.peers.items()
                        if peer.behavior.wants_fake_copy()}
        for fake_id in simulation.catalog.fake_ids():
            holders = simulation.registry.holders(fake_id)
            assert holders <= polluter_ids


class TestRunOutcomes:
    @pytest.fixture(scope="class")
    def null_metrics(self):
        return FileSharingSimulation(_config(), NullMechanism()).run()

    @pytest.fixture(scope="class")
    def md_metrics(self):
        config = _config()
        reputation_config = ReputationConfig(
            retention_saturation_seconds=config.duration_seconds / 3)
        mechanism = MultiDimensionalMechanism(reputation_config)
        return FileSharingSimulation(config, mechanism).run()

    def test_downloads_happen(self, null_metrics):
        total = sum(stats.total_downloads
                    for stats in null_metrics.per_class.values())
        assert total > 100

    def test_null_mechanism_downloads_fakes(self, null_metrics):
        assert null_metrics.overall_fake_fraction > 0.2

    def test_md_blocks_fakes(self, md_metrics):
        blocked = sum(stats.fakes_blocked
                      for stats in md_metrics.per_class.values())
        assert blocked > 0

    def test_md_reduces_fake_fraction(self, null_metrics, md_metrics):
        assert (md_metrics.overall_fake_fraction
                < null_metrics.overall_fake_fraction)

    def test_deterministic_runs(self):
        first = FileSharingSimulation(_config(), NullMechanism()).run()
        second = FileSharingSimulation(_config(), NullMechanism()).run()
        assert first.overall_fake_fraction == second.overall_fake_fraction
        assert first.total_requests == second.total_requests

    def test_removal_latency_positive_when_fakes_detected(self, null_metrics):
        if null_metrics.fake_removal_latencies:
            assert null_metrics.mean_fake_removal_latency > 0.0


class TestServiceDifferentiationToggle:
    def test_disabled_differentiation_uses_base_bandwidth(self):
        config = _config(use_service_differentiation=False,
                         use_file_filtering=False)
        simulation = FileSharingSimulation(config, NullMechanism())
        metrics = simulation.run()
        for peer in simulation.peers.values():
            base = peer.upload_capacity / peer.upload_slots
            assert base > 0
        # With no differentiation, bandwidths recorded equal slot shares.
        bandwidths = [bandwidth
                      for stats in metrics.per_class.values()
                      for bandwidth in stats.bandwidths]
        assert bandwidths


class TestChurnIntegration:
    def test_churned_run_completes(self):
        config = _config(churn=ChurnModel(mean_session_seconds=3 * 3600.0,
                                          mean_offline_seconds=6 * 3600.0,
                                          seed=2))
        metrics = FileSharingSimulation(config, NullMechanism()).run()
        assert metrics.total_requests > 0

    def test_offline_peers_not_online(self):
        config = _config(churn=ChurnModel(seed=2))
        simulation = FileSharingSimulation(config, NullMechanism())
        simulation.run()
        # Every peer is either online or offline; flags stay consistent.
        for peer_id, peer in simulation.peers.items():
            assert simulation.is_online(peer_id) == peer.online


class TestWhitewashing:
    def test_whitewasher_changes_identity(self):
        config = _config(
            scenario=ScenarioSpec(honest=20, whitewashers=3),
            duration_seconds=2 * DAY)
        simulation = FileSharingSimulation(config, NullMechanism())
        simulation.run()
        reborn = [peer for peer in simulation.peers.values()
                  if peer.previous_identities]
        # At least one whitewasher should be caught blacklisting-wise and
        # shed its identity over two days of heavy pollution.
        assert reborn, "no whitewasher ever rejoined"
        for peer in reborn:
            assert peer.peer_id not in peer.previous_identities
