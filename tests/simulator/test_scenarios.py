"""Tests for the named scenario presets."""

import pytest

from repro.baselines import NullMechanism
from repro.simulator import (SCENARIOS, FileSharingSimulation, get_scenario,
                             kazaa_pollution, maze_incentive)


class TestScenarioRegistry:
    def test_all_scenarios_produce_valid_configs(self):
        for name in SCENARIOS:
            config = get_scenario(name, seed=1)
            assert config.scenario.total() >= 2
            assert config.duration_seconds > 0

    def test_unknown_scenario_lists_alternatives(self):
        with pytest.raises(KeyError, match="balanced-mix"):
            get_scenario("frobnicate")

    def test_seed_propagates(self):
        assert get_scenario("balanced-mix", seed=7).seed == 7


class TestScenarioShapes:
    def test_kazaa_pollution_is_heavily_polluted_and_vote_sparse(self):
        config = kazaa_pollution()
        assert config.fake_ratio >= 0.4
        assert config.scenario.honest_vote_probability <= 0.1
        assert config.scenario.polluters >= 5

    def test_maze_incentive_is_free_rider_heavy(self):
        config = maze_incentive()
        assert config.scenario.free_riders >= config.scenario.polluters * 5

    def test_collusion_stress_has_cliques(self):
        config = get_scenario("collusion-stress")
        assert config.scenario.colluders >= 2 * config.scenario.clique_size

    def test_churn_heavy_enables_churn(self):
        config = get_scenario("churn-heavy")
        assert config.churn is not None


class TestScenarioRuns:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_simulates(self, name):
        config = get_scenario(name, seed=5)
        # Shrink for test speed: quarter-day, low request rate.
        small = type(config)(
            scenario=config.scenario,
            duration_seconds=6 * 3600.0,
            num_files=40,
            fake_ratio=config.fake_ratio,
            request_rate=0.005,
            seed=config.seed,
            churn=config.churn,
        )
        metrics = FileSharingSimulation(small, NullMechanism()).run()
        assert metrics.total_requests >= 0
