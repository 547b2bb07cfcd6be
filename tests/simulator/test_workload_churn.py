"""Tests for repro.simulator.workload and churn."""

import random

import pytest

from repro.simulator import ChurnModel, FileRegistry, WorkloadModel
from repro.simulator.churn import JOIN_SPREAD_SECONDS
from repro.traces import FileCatalog


class TestWorkloadModel:
    @pytest.fixture
    def registry(self):
        catalog = FileCatalog.generate(30, random.Random(1))
        registry = FileRegistry(catalog)
        for catalog_file in catalog:
            registry.add_copy("seeder", catalog_file.file_id, now=0.0)
        return registry

    def test_interarrival_positive_and_mean_close(self):
        workload = WorkloadModel(request_rate=0.1, seed=1)
        draws = [workload.next_interarrival() for _ in range(3000)]
        assert all(d > 0 for d in draws)
        assert sum(draws) / len(draws) == pytest.approx(10.0, rel=0.15)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            WorkloadModel(request_rate=0.0)

    def test_pick_request_returns_feasible_pair(self, registry):
        workload = WorkloadModel(seed=2)
        for peer_id in ("a", "b", "c"):
            workload.register_peer(peer_id)
        picked = workload.pick_request(["a", "b", "c"], registry, now=0.0)
        assert picked is not None
        requester, file_id = picked
        assert requester in ("a", "b", "c")
        assert not registry.holds(requester, file_id)

    def test_pick_request_empty_population(self, registry):
        workload = WorkloadModel(seed=2)
        assert workload.pick_request([], registry, now=0.0) is None

    def test_activity_weight_drawn_once(self):
        workload = WorkloadModel(seed=3)
        workload.register_peer("a")
        weight = workload._activity["a"]
        workload.register_peer("a")
        assert workload._activity["a"] == weight

    def test_heavy_requesters_dominate(self, registry):
        workload = WorkloadModel(seed=4)
        peers = [f"p{i}" for i in range(20)]
        for peer_id in peers:
            workload.register_peer(peer_id)
        counts = {}
        for _ in range(2000):
            picked = workload.pick_request(peers, registry, now=0.0)
            if picked:
                counts[picked[0]] = counts.get(picked[0], 0) + 1
        top = max(counts.values())
        assert top > 3 * (sum(counts.values()) / len(peers))


class TestChurnModel:
    def test_invalid_durations_rejected(self):
        with pytest.raises(ValueError):
            ChurnModel(mean_session_seconds=0.0)
        with pytest.raises(ValueError):
            ChurnModel(mean_offline_seconds=-1.0)
        with pytest.raises(ValueError):
            ChurnModel(mean_offline_seconds=0.0)

    def test_join_delay_within_spread(self):
        churn = ChurnModel(seed=1)
        for _ in range(100):
            assert 0.0 <= churn.initial_join_delay() <= JOIN_SPREAD_SECONDS

    def test_session_durations_exponential_mean(self):
        churn = ChurnModel(mean_session_seconds=1000.0, seed=2)
        draws = [churn.session_duration() for _ in range(5000)]
        assert sum(draws) / len(draws) == pytest.approx(1000.0, rel=0.1)

    def test_offline_durations_positive(self):
        churn = ChurnModel(seed=3)
        assert all(churn.offline_duration() > 0 for _ in range(100))

    def test_scaled_divides_both_means(self):
        churn = ChurnModel(mean_session_seconds=4000.0,
                           mean_offline_seconds=8000.0, seed=9)
        fast = churn.scaled(4.0)
        assert fast.mean_session_seconds == 1000.0
        assert fast.mean_offline_seconds == 2000.0
        assert fast.seed == 9

    def test_scaled_preserves_online_fraction(self):
        churn = ChurnModel(mean_session_seconds=6000.0,
                           mean_offline_seconds=18000.0)
        fast = churn.scaled(3.0)
        before = churn.mean_session_seconds / (
            churn.mean_session_seconds + churn.mean_offline_seconds)
        after = fast.mean_session_seconds / (
            fast.mean_session_seconds + fast.mean_offline_seconds)
        assert after == pytest.approx(before)

    def test_scaled_rejects_non_positive_factor(self):
        churn = ChurnModel()
        with pytest.raises(ValueError):
            churn.scaled(0.0)
        with pytest.raises(ValueError):
            churn.scaled(-2.0)

    def test_scaled_does_not_mutate_original(self):
        churn = ChurnModel(mean_session_seconds=4000.0)
        churn.scaled(2.0)
        assert churn.mean_session_seconds == 4000.0
