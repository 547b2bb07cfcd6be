"""Tests for repro.core.pipeline: the incremental TrustPipeline."""

import random

import pytest

import repro.core.matrix_backend as matrix_backend
from repro.core import (EvaluationStore, MultiDimensionalReputationSystem,
                        ReputationConfig, TrustMatrix, TrustPipeline,
                        UserTrustStore, compute_reputation_matrix,
                        resolve_backend)
from repro.core.integration import build_one_step_matrix
from repro.core.volume_trust import DownloadLedger
from repro.lint.contracts import set_contracts_enabled
from repro.obs import Recorder


def _pipeline(config=None):
    evaluations = EvaluationStore(config=config or ReputationConfig())
    ledger = DownloadLedger()
    user_trust = UserTrustStore()
    pipeline = TrustPipeline(evaluations, ledger, user_trust,
                             config or ReputationConfig())
    return pipeline, evaluations, ledger, user_trust


def _populate(evaluations, ledger, user_trust):
    for user, file_id, value in [("a", "f1", 0.9), ("b", "f1", 0.8),
                                 ("a", "f2", 0.2), ("c", "f2", 0.3),
                                 ("b", "f3", 0.7), ("c", "f3", 0.6)]:
        evaluations.record_vote(user, file_id, value)
    ledger.record_download("a", "b", "f1", 5e6)
    ledger.record_download("c", "b", "f3", 2e6)
    user_trust.rate("a", "c", 0.8)


class TestRefreshModes:
    def test_first_refresh_is_full(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        assert pipeline.last_stats.mode == "full"

    def test_second_refresh_with_delta_is_incremental(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        evaluations.record_vote("a", "f1", 0.5)
        pipeline.refresh()
        assert pipeline.last_stats.mode == "incremental"

    def test_noop_refresh_keeps_matrix_identity(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        before_trust = pipeline.trust
        before_version = pipeline.version
        pipeline.refresh()
        assert pipeline.trust is before_trust
        assert pipeline.version == before_version

    def test_refresh_with_delta_publishes_new_identity(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        before = pipeline.trust
        evaluations.record_vote("b", "f2", 0.4)
        pipeline.refresh()
        assert pipeline.trust is not before

    def test_force_full_reports_full_mode(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        pipeline.refresh(force_full=True)
        assert pipeline.last_stats.mode == "full"

    def test_force_full_with_no_dirt_rebuilds_identically(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        checksums = pipeline.checksums()
        version = pipeline.version
        assert not pipeline.has_dirty
        pipeline.refresh(force_full=True)
        assert pipeline.last_stats.mode == "full"
        assert pipeline.version == version + 1
        assert pipeline.checksums() == checksums

    def test_version_increments_on_real_refreshes(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        assert pipeline.version == 0
        evaluations.record_vote("a", "f1", 0.5)
        pipeline.refresh()
        assert pipeline.version == 1
        pipeline.refresh()
        assert pipeline.version == 1
        evaluations.record_vote("b", "f1", 0.7)
        pipeline.refresh()
        assert pipeline.version == 2

    def test_dimension_matrices_before_any_refresh(self):
        pipeline, *_ = _pipeline()
        dimensions = pipeline.dimension_matrices()
        assert set(dimensions) == {"file", "volume", "user"}
        for matrix in dimensions.values():
            assert isinstance(matrix, TrustMatrix)
            assert matrix.row_ids() == []


class TestIncrementalEqualsFull:
    def test_single_event_patch_matches_oracle(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        evaluations.record_vote("c", "f1", 0.85)
        pipeline.refresh()
        oracle = build_one_step_matrix(evaluations, ledger, user_trust,
                                       pipeline.config)
        assert pipeline.trust == oracle

    def test_incremental_touches_fewer_rows_than_full(self):
        config = ReputationConfig()
        pipeline, evaluations, ledger, user_trust = _pipeline(config)
        _populate(evaluations, ledger, user_trust)
        for extra in range(6):
            evaluations.record_vote(f"x{extra}", f"g{extra}", 0.5)
        pipeline.refresh()
        total = pipeline.last_stats.total_rows
        user_trust.rate("b", "a", 0.9)
        pipeline.refresh()
        stats = pipeline.last_stats
        assert stats.rows_rebuilt < total
        assert 0.0 < stats.rebuild_ratio < 1.0


    @pytest.mark.parametrize("weights", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                         (0.0, 0.0, 1.0)])
    def test_single_dimension_configs(self, weights):
        alpha, beta, gamma = weights
        config = ReputationConfig(alpha=alpha, beta=beta, gamma=gamma)
        pipeline, evaluations, ledger, user_trust = _pipeline(config)
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        evaluations.record_vote("c", "f1", 0.85)
        ledger.record_download("b", "a", "f2", 3e6)
        user_trust.rate("b", "c", 0.6)
        pipeline.refresh()
        assert pipeline.last_stats.mode == "incremental"
        assert pipeline.trust == build_one_step_matrix(
            evaluations, ledger, user_trust, config)
        incremental = pipeline.checksums()
        pipeline.refresh(force_full=True)
        assert pipeline.checksums() == incremental


class TestBackendResolution:
    """A matmul backend is resolved only when a power actually runs."""

    @pytest.fixture
    def no_selection(self, monkeypatch):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("select_backend consulted at n == 1")
        monkeypatch.setattr(matrix_backend, "select_backend", forbidden)

    @pytest.mark.parametrize("contracts", [False, True])
    def test_n1_refreshes_never_select_a_backend(self, no_selection,
                                                 contracts):
        set_contracts_enabled(contracts)
        try:
            pipeline, evaluations, ledger, user_trust = _pipeline()
            pipeline.recorder = Recorder(trace_sink=[])
            _populate(evaluations, ledger, user_trust)
            pipeline.refresh()
            evaluations.record_vote("a", "f1", 0.5)
            pipeline.refresh()
            assert pipeline.last_stats.mode == "incremental"
            assert pipeline.last_stats.backend == "none"
            pipeline.refresh(force_full=True)
            assert pipeline.last_stats.backend == "none"
            assert pipeline.reputation is pipeline.trust
        finally:
            set_contracts_enabled(None)
        events = [event for event in pipeline.recorder.trace_sink
                  if event["event"] == "pipeline_refresh"]
        assert [event["backend"] for event in events] == ["none"] * 3

    def test_step_override_resolves_a_backend(self, monkeypatch):
        chosen = []
        select = matrix_backend.select_backend

        def spy(matrix):
            backend = select(matrix)
            chosen.append(backend.name)
            return backend
        monkeypatch.setattr(matrix_backend, "select_backend", spy)
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        assert chosen == []
        pipeline.reputation_at(2)
        assert chosen == ["csr"]

    @pytest.mark.parametrize("steps", [1, 2, 4])
    def test_reputation_at_overrides(self, steps):
        config = ReputationConfig(multitrust_steps=3)
        pipeline, evaluations, ledger, user_trust = _pipeline(config)
        _populate(evaluations, ledger, user_trust)
        evaluations.record_vote("c", "f1", 0.85)
        pipeline.refresh()
        trust = pipeline.trust
        expected = compute_reputation_matrix(
            trust, steps, config,
            backend=resolve_backend(config.matmul_backend, trust))
        assert pipeline.reputation_at(steps) == expected
        if steps == 1:
            assert pipeline.reputation_at(1) is trust


class TestStatsAndObservability:
    def test_stats_count_dirty_inputs(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        evaluations.record_vote("a", "f9", 0.5)
        ledger.record_download("b", "c", "f9", 1e6)
        user_trust.rate("c", "a", 0.4)
        pipeline.refresh()
        stats = pipeline.last_stats
        assert stats.dirty_files == 1
        assert stats.dirty_rows_user == 1
        assert stats.rows_rebuilt >= 1

    def test_refresh_emits_pipeline_events(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        pipeline.recorder = Recorder(trace_sink=[])
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        evaluations.record_vote("a", "f1", 0.1)
        pipeline.refresh()
        modes = [event["mode"] for event in pipeline.recorder.trace_sink
                 if event["event"] == "pipeline_refresh"]
        assert modes == ["full", "incremental"]

    def test_rebuild_ratio_zero_on_empty(self):
        pipeline, *_ = _pipeline()
        pipeline.refresh()
        assert pipeline.last_stats.rebuild_ratio == 0.0


class TestStepOverrides:
    def test_reputation_at_cached_until_refresh(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        first = pipeline.reputation_at(3)
        assert pipeline.reputation_at(3) is first
        evaluations.record_vote("a", "f1", 0.3)
        pipeline.refresh()
        assert pipeline.reputation_at(3) is not first

    def test_reputation_at_default_steps_is_published_matrix(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        steps = pipeline.config.multitrust_steps
        assert pipeline.reputation_at(steps) is pipeline.reputation


def _drive_facade(system, events):
    """A deterministic mixed workload through the façade, refreshing often."""
    rng = random.Random(9)
    users = [f"u{i}" for i in range(12)]
    files = [f"f{i}" for i in range(20)]
    for step in range(events):
        user = rng.choice(users)
        peer = rng.choice([u for u in users if u != user])
        file_id = rng.choice(files)
        kind = step % 5
        if kind == 0:
            system.record_vote(user, file_id, rng.random(),
                               timestamp=float(step))
        elif kind == 1:
            system.record_download(user, peer, file_id,
                                   1e4 * (1 + rng.random()),
                                   timestamp=float(step))
        elif kind == 2:
            system.record_retention(user, file_id, rng.random() * 1e4,
                                    timestamp=float(step))
        elif kind == 3:
            system.record_rank(user, peer, rng.random())
        else:
            system.add_friend(user, peer)
        if step % 20 == 19:
            system.recompute()
            system.refresh_view()
    system.recompute()
    system.refresh_view()


class TestFacadeIntegration:
    def test_facade_first_refresh_is_full(self):
        system = MultiDimensionalReputationSystem(auto_refresh=False)
        system.record_vote("u0", "f0", 0.8, timestamp=0.0)
        system.recompute()
        system.refresh_view()
        assert system.pipeline.last_stats.mode == "full"

    def test_facade_noop_refresh_returns_identity(self):
        config = ReputationConfig(multitrust_steps=2)
        system = MultiDimensionalReputationSystem(config, auto_refresh=False)
        _drive_facade(system, events=40)
        pipeline = system.pipeline
        version = pipeline.version
        before = pipeline.view()
        after = pipeline.refresh()
        assert after.trust is before.trust
        assert after.reputation is before.reputation
        assert pipeline.version == version

    def test_facade_force_full_rebuilds_identically(self):
        system = MultiDimensionalReputationSystem(auto_refresh=False)
        _drive_facade(system, events=60)
        pipeline = system.pipeline
        checksums = pipeline.checksums()
        assert not pipeline.has_dirty
        pipeline.refresh(force_full=True)
        assert pipeline.last_stats.mode == "full"
        assert pipeline.checksums() == checksums

    def test_facade_uses_incremental_path_between_recomputes(self):
        system = MultiDimensionalReputationSystem(auto_refresh=False)
        system.record_vote("a", "f1", 0.9)
        system.record_vote("b", "f1", 0.8)
        system.recompute()
        system.refresh_view()
        system.record_vote("b", "f2", 0.4)
        system.recompute()
        system.refresh_view()
        assert system.pipeline.last_stats.mode == "incremental"

    def test_facade_recorder_propagates_to_pipeline(self):
        system = MultiDimensionalReputationSystem()
        recorder = Recorder()
        system.recorder = recorder
        assert system.pipeline.recorder is recorder

    def test_tier_view_cached_per_pipeline_version(self):
        system = MultiDimensionalReputationSystem()
        system.record_vote("a", "f1", 0.9)
        system.record_vote("b", "f1", 0.8)
        view = system.tier_view()
        assert system.tier_view() is view
        system.record_vote("b", "f2", 0.4)
        assert system.tier_view() is not view

    def test_dense_backend_config_accepted_end_to_end(self):
        config = ReputationConfig(matmul_backend="dense",
                                  multitrust_steps=2)
        system = MultiDimensionalReputationSystem(config)
        system.record_vote("a", "f1", 0.9)
        system.record_vote("b", "f1", 0.8)
        matrix = system.reputation_matrix()
        assert matrix.get("a", "b") >= 0.0
        assert system.pipeline.last_stats.backend == "dense"
