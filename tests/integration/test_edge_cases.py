"""Edge-case battery: degenerate inputs must degrade gracefully, not crash.

Each case documents a boundary a downstream user will eventually hit:
hostile-majority populations, catalogs with no (or only) fakes, empty
behavioural histories, one-node DHTs, and extreme configurations.
"""

import random

import pytest

from repro.baselines import ALL_MECHANISMS, MultiDimensionalMechanism
from repro.core import (CSR_BACKEND, MultiDimensionalReputationSystem,
                        ReputationConfig, TrustMatrix)
from repro.dht import DHTNetwork, EvaluationOverlay, KeyAuthority
from repro.simulator import (FileSharingSimulation, ScenarioSpec,
                             SimulationConfig)
from repro.traces import FileCatalog, MazeTraceGenerator, TraceParameters

DAY = 24 * 3600.0


class TestDegeneratePopulations:
    def test_all_polluters_world_runs(self):
        config = SimulationConfig(
            scenario=ScenarioSpec(honest=0, polluters=8),
            duration_seconds=0.25 * DAY, num_files=20,
            request_rate=0.005, seed=1)
        metrics = FileSharingSimulation(
            config, MultiDimensionalMechanism()).run()
        assert metrics.total_requests >= 0

    def test_all_free_riders_cannot_download_anything(self):
        """Nobody shares: every request dies for lack of an uploader."""
        config = SimulationConfig(
            scenario=ScenarioSpec(honest=0, free_riders=8),
            duration_seconds=0.25 * DAY, num_files=20,
            request_rate=0.01, seed=1, use_file_filtering=False)
        simulation = FileSharingSimulation(config, ALL_MECHANISMS["null"]())
        metrics = simulation.run()
        downloads = sum(stats.total_downloads
                        for stats in metrics.per_class.values())
        assert downloads == 0
        rejected = sum(stats.requests_rejected
                       for stats in metrics.per_class.values())
        assert rejected == metrics.total_requests

    def test_two_peer_minimum_population(self):
        config = SimulationConfig(
            scenario=ScenarioSpec(honest=2),
            duration_seconds=0.25 * DAY, num_files=10,
            request_rate=0.005, seed=1)
        FileSharingSimulation(config, ALL_MECHANISMS["null"]()).run()


class TestDegenerateCatalogs:
    def test_all_fake_catalog(self):
        config = SimulationConfig(
            scenario=ScenarioSpec(honest=8, polluters=2),
            duration_seconds=0.25 * DAY, num_files=15, fake_ratio=1.0,
            request_rate=0.005, seed=2)
        metrics = FileSharingSimulation(
            config, MultiDimensionalMechanism()).run()
        for stats in metrics.per_class.values():
            assert stats.real_downloads == 0

    def test_no_fake_catalog(self):
        config = SimulationConfig(
            scenario=ScenarioSpec(honest=8),
            duration_seconds=0.25 * DAY, num_files=15, fake_ratio=0.0,
            request_rate=0.005, seed=2)
        metrics = FileSharingSimulation(
            config, MultiDimensionalMechanism()).run()
        assert metrics.overall_fake_fraction == 0.0
        assert metrics.fake_removal_latencies == []

    def test_single_file_catalog(self):
        catalog = FileCatalog.generate(1, random.Random(1))
        assert len(catalog) == 1


class TestEmptyHistories:
    def test_fresh_system_answers_all_queries(self):
        system = MultiDimensionalReputationSystem()
        assert system.user_reputation("a", "b") == 0.0
        assert system.global_reputation() == {}
        judgement = system.judge_file("a", "anything")
        assert judgement.blind
        level = system.service_level("a", "b")
        assert level.bandwidth_quota > 0
        assert system.order_request_queue("a", []) == []

    def test_every_mechanism_queryable_before_any_signal(self):
        for factory in ALL_MECHANISMS.values():
            mechanism = factory()
            mechanism.refresh()
            assert mechanism.reputation("a", "b") == 0.0
            assert mechanism.file_score("a", "f") is None

    def test_empty_matrix_operations(self):
        empty = TrustMatrix()
        assert CSR_BACKEND.power(empty, 3) == empty
        assert empty.row_normalized() == empty
        assert CSR_BACKEND.matmul(empty, empty) == empty
        assert empty.density() == 0.0


class TestDegenerateDHT:
    def test_single_node_overlay_full_cycle(self):
        overlay = EvaluationOverlay(DHTNetwork(), KeyAuthority())
        overlay.register_user("loner")
        overlay.publish("loner", "file", 0.9, now=0.0)
        retrieved = overlay.retrieve("loner", "file", now=1.0)
        assert retrieved.evaluations == {"loner": 0.9}

    def test_retrieval_of_never_published_file(self):
        overlay = EvaluationOverlay(DHTNetwork(), KeyAuthority())
        for user in ("a", "b", "c"):
            overlay.register_user(user)
        retrieved = overlay.retrieve("a", "ghost-file", now=0.0)
        assert retrieved.owners == []
        assert retrieved.evaluations == {}


class TestExtremeConfigs:
    def test_zero_consumption_delay(self):
        config = SimulationConfig(
            scenario=ScenarioSpec(honest=6, polluters=2),
            duration_seconds=0.25 * DAY, num_files=15,
            request_rate=0.005, seed=3,
            mean_consumption_delay_seconds=0.0)
        FileSharingSimulation(config, ALL_MECHANISMS["null"]()).run()

    def test_extreme_multitrust_steps(self):
        config = ReputationConfig(multitrust_steps=8, alpha=0.0, beta=0.0,
                                  gamma=1.0)
        system = MultiDimensionalReputationSystem(config)
        system.record_rank("a", "b", 1.0)
        system.record_rank("b", "a", 1.0)
        # An 8-step walk on a pure 2-cycle lands back home with full mass.
        assert system.reputation_matrix().get("a", "a") == pytest.approx(1.0)

    def test_zero_library_trace_still_generates(self):
        generated = MazeTraceGenerator(TraceParameters(
            num_users=20, num_files=30, num_actions=100, trace_days=2.0,
            library_size=0, seed=4)).generate()
        assert len(generated.trace) > 0

    def test_trace_with_zero_actions(self):
        generated = MazeTraceGenerator(TraceParameters(
            num_users=10, num_files=10, num_actions=0, trace_days=1.0,
            seed=4)).generate()
        assert len(generated.trace) == 0
