"""Tests for repro.traces.generator: the Maze-like synthetic trace."""

import pytest

from repro.traces import MazeTraceGenerator, TraceParameters

DAY = 24 * 3600.0


@pytest.fixture(scope="module")
def generated():
    parameters = TraceParameters(num_users=150, num_files=200,
                                 num_actions=4000, trace_days=10.0, seed=5)
    return MazeTraceGenerator(parameters).generate()


class TestParameters:
    def test_defaults_are_valid(self):
        TraceParameters()

    def test_too_few_users_rejected(self):
        with pytest.raises(ValueError):
            TraceParameters(num_users=1)

    def test_negative_actions_rejected(self):
        with pytest.raises(ValueError):
            TraceParameters(num_actions=-1)


class TestGeneratedTrace:
    def test_yields_most_requested_actions(self, generated):
        # Some samples are infeasible (no holder online); the vast majority
        # must still materialise.
        assert len(generated.trace) > 0.8 * 4000

    def test_timestamps_sorted_and_in_horizon(self, generated):
        times = [r.timestamp for r in generated.trace]
        assert times == sorted(times)
        assert all(0 <= t < 10.0 * DAY for t in times)

    def test_uploader_always_a_holder(self, generated):
        """Replay invariant: an uploader held the file before serving it."""
        holders = {file_id: set(users)
                   for file_id, users in generated.initial_holdings.items()}
        for record in generated.trace:
            assert record.uploader_id in holders[record.content_hash]
            holders[record.content_hash].add(record.downloader_id)

    def test_no_duplicate_acquisitions(self, generated):
        seen = set()
        for record in generated.trace:
            key = (record.downloader_id, record.content_hash)
            assert key not in seen
            seen.add(key)

    def test_participants_within_lifetimes(self, generated):
        for record in generated.trace:
            join, leave = generated.lifetimes[record.downloader_id]
            assert join <= record.timestamp < leave
            join, leave = generated.lifetimes[record.uploader_id]
            assert join <= record.timestamp < leave

    def test_fake_flags_match_catalog(self, generated):
        for record in generated.trace[:200]:
            assert record.is_fake == generated.catalog.get(
                record.content_hash).is_fake

    def test_deterministic_for_seed(self):
        parameters = TraceParameters(num_users=50, num_files=60,
                                     num_actions=500, trace_days=5.0, seed=9)
        first = MazeTraceGenerator(parameters).generate()
        second = MazeTraceGenerator(parameters).generate()
        assert len(first.trace) == len(second.trace)
        assert all(a == b for a, b in zip(first.trace, second.trace))

    def test_different_seeds_differ(self):
        base = TraceParameters(num_users=50, num_files=60, num_actions=500,
                               trace_days=5.0, seed=1)
        other = TraceParameters(num_users=50, num_files=60, num_actions=500,
                                trace_days=5.0, seed=2)
        first = MazeTraceGenerator(base).generate()
        second = MazeTraceGenerator(other).generate()
        assert any(a != b for a, b in zip(first.trace, second.trace))


class TestMazeLikeShape:
    def test_activity_is_heavy_tailed(self, generated):
        from repro.traces import compute_statistics
        statistics = compute_statistics(generated.trace)
        # Log-normal activity should give a clearly unequal distribution.
        assert statistics.downloader_activity_gini > 0.3

    def test_popularity_is_zipf_like(self, generated):
        from repro.traces import compute_statistics
        statistics = compute_statistics(generated.trace)
        assert 0.3 < statistics.popularity_zipf_exponent < 2.0

    def test_evening_heavy_diurnal_profile(self, generated):
        evening = sum(1 for r in generated.trace
                      if (r.timestamp % DAY) >= 12 * 3600)
        assert evening > 0.6 * len(generated.trace)
