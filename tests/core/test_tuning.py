"""Tests for repro.core.tuning: the weight-sweep machinery."""

import pytest

from repro.core import (EvaluationStore, ReputationConfig, TrustMatrix,
                        build_file_trust_matrix, fake_ranking_objective,
                        file_reputation, separation_objective, simplex_grid,
                        sweep_dimension_weights, sweep_eta)


class TestSimplexGrid:
    def test_points_sum_to_one(self):
        for point in simplex_grid(4):
            assert sum(point) == pytest.approx(1.0)

    def test_count_is_triangular(self):
        # (r+1)(r+2)/2 lattice points on the 2-simplex.
        assert len(simplex_grid(4)) == 15
        assert len(simplex_grid(1)) == 3

    def test_includes_corners(self):
        points = set(simplex_grid(2))
        assert (1.0, 0.0, 0.0) in points
        assert (0.0, 1.0, 0.0) in points
        assert (0.0, 0.0, 1.0) in points

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            simplex_grid(0)


class TestSweeps:
    def test_sweep_eta_covers_grid(self):
        result = sweep_eta(lambda config: config.eta, steps=5)
        assert len(result.points) == 6
        assert result.best_config.eta == pytest.approx(1.0)

    def test_sweep_eta_keeps_constraint(self):
        result = sweep_eta(lambda config: 0.0, steps=4)
        for point in result.points:
            assert point.config.eta + point.config.rho == pytest.approx(1.0)

    def test_sweep_dimensions_finds_planted_optimum(self):
        target = (0.5, 0.25, 0.25)

        def objective(config):
            return -(abs(config.alpha - target[0])
                     + abs(config.beta - target[1])
                     + abs(config.gamma - target[2]))

        result = sweep_dimension_weights(objective, resolution=4)
        assert (result.best_config.alpha, result.best_config.beta,
                result.best_config.gamma) == pytest.approx(target)

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            sweep_eta(lambda config: 0.0, steps=0)

    def test_table_rows_shape(self):
        result = sweep_eta(lambda config: 1.0, steps=2)
        rows = result.table_rows()
        assert len(rows) == 3
        assert len(rows[0]) == 5


class TestObjectives:
    def test_separation_objective_prefers_separating_configs(self):
        def build_reputation(config):
            # alpha scales the good edge, gamma the bad edge.
            row = {"good": config.alpha}
            if config.gamma > 0:
                row["bad"] = config.gamma
            return TrustMatrix({"observer": row})

        objective = separation_objective(build_reputation, ["observer"],
                                         good=["good"], bad=["bad"])
        result = sweep_dimension_weights(objective, resolution=2)
        assert result.best_config.alpha == pytest.approx(1.0)
        assert result.best_config.gamma == pytest.approx(0.0)

    def test_separation_objective_validates_populations(self):
        with pytest.raises(ValueError):
            separation_objective(lambda config: TrustMatrix(), [], ["g"], ["b"])

    def test_fake_ranking_objective_perfect_config(self):
        truth = {"fake": True, "real": False}

        def score_files(config):
            # eta = 1 inverts the ranking; eta = 0 ranks correctly.
            if config.eta == 0.0:
                return {"fake": 0.1, "real": 0.9}
            return {"fake": 0.9, "real": 0.1}

        objective = fake_ranking_objective(score_files, truth)
        result = sweep_eta(objective, steps=2)
        assert result.best_config.eta == pytest.approx(0.0)
        assert result.best_score == pytest.approx(1.0)

    def test_fake_ranking_objective_empty_scores(self):
        objective = fake_ranking_objective(lambda config: {}, {"f": True})
        assert objective(ReputationConfig()) == 0.0


class TestEndToEndTuning:
    def test_eta_sweep_on_real_stores(self):
        """Tune eta on a tiny world where votes are honest but retention is
        misleading (everyone hoards fakes): explicit-heavy blends win."""
        def score_files(config):
            store = EvaluationStore(config=config)
            # Both users hoard the fake (long retention) but vote it down.
            for user in ("a", "b"):
                store.record_retention(user, "fake",
                                       config.retention_saturation_seconds)
                store.record_vote(user, "fake", 0.05)
                store.record_retention(user, "real",
                                       config.retention_saturation_seconds)
                store.record_vote(user, "real", 0.95)
            fm = build_file_trust_matrix(store, config)
            scores = {}
            for file_id in ("fake", "real"):
                score = file_reputation(fm, "a",
                                        store.file_evaluations(file_id))
                if score is not None:
                    scores[file_id] = score
            return scores

        objective = fake_ranking_objective(score_files,
                                           {"fake": True, "real": False})
        result = sweep_eta(objective, steps=4)
        # Any blend with some explicit weight ranks correctly; pure implicit
        # (eta=1) cannot separate them at all.
        assert result.best_score == pytest.approx(1.0)
        pure_implicit = [point for point in result.points
                         if point.config.eta == 1.0][0]
        assert pure_implicit.score < 1.0
