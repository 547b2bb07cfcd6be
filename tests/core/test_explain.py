"""Tests for repro.core.explain: reputation decomposition."""

import importlib

import pytest

from repro.core import (MultiDimensionalReputationSystem, ReputationConfig,
                        TrustPath,
                        explain_reputation)

PURE_EXPLICIT = ReputationConfig(eta=0.0, rho=1.0)


@pytest.fixture
def system():
    system = MultiDimensionalReputationSystem(PURE_EXPLICIT)
    # File evidence: a and b agree on f1.
    system.record_vote("a", "f1", 0.9)
    system.record_vote("b", "f1", 0.9)
    # Volume evidence: a downloaded validly from b.
    system.record_download("a", "b", "f1", 100e6)
    # User evidence: friendship.
    system.add_friend("a", "b")
    # A second relationship so normalisation is non-trivial.
    system.record_rank("a", "c", 0.5)
    system.record_vote("c", "f1", 0.9)
    return system


class TestDecomposition:
    def test_contributions_sum_to_direct_edge(self, system):
        explanation = explain_reputation(system, "a", "b")
        total = sum(c.contribution for c in explanation.contributions)
        assert total == pytest.approx(explanation.direct_edge)

    def test_all_three_dimensions_reported(self, system):
        explanation = explain_reputation(system, "a", "b")
        assert {c.dimension for c in explanation.contributions} == \
            {"file", "volume", "user"}

    def test_weights_match_config(self, system):
        explanation = explain_reputation(system, "a", "b")
        by_dimension = {c.dimension: c.weight
                        for c in explanation.contributions}
        assert by_dimension["file"] == PURE_EXPLICIT.alpha
        assert by_dimension["volume"] == PURE_EXPLICIT.beta
        assert by_dimension["user"] == PURE_EXPLICIT.gamma

    def test_evidence_strings_are_specific(self, system):
        explanation = explain_reputation(system, "a", "b")
        by_dimension = {c.dimension: c.evidence
                        for c in explanation.contributions}
        assert "co-evaluated" in by_dimension["file"]
        assert "MB valid volume" in by_dimension["volume"]
        assert by_dimension["user"] == "friend"

    def test_zero_weight_dimension_omitted(self):
        config = ReputationConfig(alpha=1.0, beta=0.0, gamma=0.0)
        system = MultiDimensionalReputationSystem(config)
        system.record_vote("a", "f", 0.9)
        system.record_vote("b", "f", 0.9)
        explanation = explain_reputation(system, "a", "b")
        assert {c.dimension for c in explanation.contributions} == {"file"}

    def test_stranger_has_no_evidence(self, system):
        explanation = explain_reputation(system, "a", "zzz")
        assert explanation.reputation == 0.0
        assert all(c.contribution == 0.0
                   for c in explanation.contributions)

    def test_blacklist_flagged(self, system):
        system.add_to_blacklist("a", "b")
        explanation = explain_reputation(system, "a", "b")
        assert explanation.blacklisted
        user = next(c for c in explanation.contributions
                    if c.dimension == "user")
        assert user.evidence == "blacklisted"
        assert user.value == 0.0


class TestIndirectPaths:
    def test_paths_found_through_intermediaries(self):
        system = MultiDimensionalReputationSystem(
            ReputationConfig(alpha=0.0, beta=0.0, gamma=1.0,
                             multitrust_steps=2))
        system.record_rank("a", "mid", 1.0)
        system.record_rank("mid", "far", 1.0)
        explanation = explain_reputation(system, "a", "far")
        assert explanation.reputation > 0.0
        assert explanation.direct_edge == 0.0
        assert [path.via for path in explanation.indirect_paths] == ["mid"]
        assert explanation.indirect_paths[0].mass == pytest.approx(1.0)

    def test_paths_sorted_by_mass_and_capped(self):
        system = MultiDimensionalReputationSystem(
            ReputationConfig(alpha=0.0, beta=0.0, gamma=1.0))
        for index, strength in enumerate((0.9, 0.5, 0.3, 0.1)):
            via = f"mid{index}"
            system.record_rank("a", via, strength)
            system.record_rank(via, "far", 1.0)
        explanation = explain_reputation(system, "a", "far", max_paths=2)
        assert len(explanation.indirect_paths) == 2
        assert (explanation.indirect_paths[0].mass
                >= explanation.indirect_paths[1].mass)


class TestRendering:
    def test_render_mentions_everything(self, system):
        text = explain_reputation(system, "a", "b").render()
        assert "Why does a trust b?" in text
        assert "file" in text and "volume" in text and "user" in text

    def test_render_empty_explanation(self):
        system = MultiDimensionalReputationSystem()
        text = explain_reputation(system, "x", "y").render()
        assert "no direct or indirect trust evidence" in text

    def test_render_blacklist_warning(self, system):
        system.add_to_blacklist("a", "b")
        text = explain_reputation(system, "a", "b").render()
        assert "blacklist" in text


class TestTrustPathMass:
    def test_mass_is_product_of_hops(self):
        path = TrustPath(via="m", first_hop=0.5, second_hop=0.4)
        assert path.mass == pytest.approx(0.2)

    def test_zero_hop_kills_the_path(self):
        assert TrustPath(via="m", first_hop=0.0, second_hop=0.9).mass == 0.0
        assert TrustPath(via="m", first_hop=0.9, second_hop=0.0).mass == 0.0

    def test_mass_matches_matrix_product_on_real_system(self, system):
        explanation = explain_reputation(system, "a", "b")
        matrix = system.one_step_matrix()
        for path in explanation.indirect_paths:
            assert path.first_hop == pytest.approx(
                matrix.get("a", path.via))
            assert path.second_hop == pytest.approx(
                matrix.get(path.via, "b"))
            assert path.mass == pytest.approx(
                path.first_hop * path.second_hop)

    def test_paths_never_route_through_endpoints(self, system):
        explanation = explain_reputation(system, "a", "b")
        assert all(path.via not in ("a", "b")
                   for path in explanation.indirect_paths)


class TestReadsPipelineDimensions:
    """Explanations read FM/DM/UM from the pipeline, not from a rebuild."""

    USERS = ("a", "b", "c", "d")

    @staticmethod
    def _evolved_system():
        system = MultiDimensionalReputationSystem(PURE_EXPLICIT)
        for round_number in range(3):
            for index, user in enumerate(TestReadsPipelineDimensions.USERS):
                file_id = f"f{(index + round_number) % 3}"
                system.record_vote(user, file_id, 0.2 + 0.2 * index)
                system.record_download(user, f"u{round_number}", file_id,
                                       (index + 1) * 10e6)
            system.record_rank("a", "c", 0.25 * (round_number + 1))
            system.add_friend("b", "d")
            # Refresh between rounds so the final matrices are patched
            # incrementally rather than built once in full.
            system.one_step_matrix()
        system.add_to_blacklist("c", "a")
        return system

    def test_values_equal_a_full_rebuild_and_no_matrix_is_rebuilt(
            self, monkeypatch):
        file_trust = importlib.import_module("repro.core.file_trust")
        user_trust = importlib.import_module("repro.core.user_trust")
        volume_trust = importlib.import_module("repro.core.volume_trust")
        system = self._evolved_system()
        config = system.config
        rebuilt = {
            "file": file_trust.build_file_trust_matrix(
                system.evaluations, config),
            "volume": volume_trust.build_volume_trust_matrix(
                system.ledger, system.evaluations, config),
            "user": user_trust.build_user_trust_matrix(system.user_trust),
        }

        def forbidden(*args, **kwargs):
            raise AssertionError("explain_reputation rebuilt a matrix")

        for module, name in ((file_trust, "build_file_trust_matrix"),
                             (volume_trust, "build_volume_trust_matrix"),
                             (user_trust, "build_user_trust_matrix")):
            monkeypatch.setattr(module, name, forbidden)
        for observer in self.USERS:
            for target in self.USERS:
                explanation = explain_reputation(system, observer, target)
                for contribution in explanation.contributions:
                    expected = rebuilt[contribution.dimension].get(
                        observer, target)
                    assert contribution.value == expected
                    assert contribution.contribution \
                        == contribution.weight * expected
