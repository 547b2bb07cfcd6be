"""Tests for the EigenTrust baseline."""

import pytest

from repro.baselines import EigenTrustMechanism


def _transaction(mechanism, downloader, uploader, file_id, vote):
    mechanism.record_download(downloader, uploader, file_id, 100.0)
    mechanism.record_vote(downloader, file_id, vote)


class TestBasics:
    def test_scores_form_distribution(self):
        mechanism = EigenTrustMechanism()
        _transaction(mechanism, "a", "b", "f1", 1.0)
        _transaction(mechanism, "b", "c", "f2", 1.0)
        scores = mechanism.global_scores()
        assert sum(scores.values()) == pytest.approx(1.0)
        assert all(score >= 0 for score in scores.values())

    def test_good_uploader_outranks_unknown(self):
        mechanism = EigenTrustMechanism()
        for index in range(5):
            _transaction(mechanism, f"d{index}", "good", f"f{index}", 1.0)
        scores = mechanism.global_scores()
        assert scores["good"] == max(scores.values())

    def test_unsatisfactory_transactions_cancel_positive(self):
        mechanism = EigenTrustMechanism()
        _transaction(mechanism, "a", "bad", "f1", 1.0)
        _transaction(mechanism, "a", "bad", "f2", 0.0)
        _transaction(mechanism, "a", "good", "f3", 1.0)
        scores = mechanism.global_scores()
        assert scores["good"] > scores["bad"]

    def test_observer_independent(self):
        mechanism = EigenTrustMechanism()
        _transaction(mechanism, "a", "b", "f1", 1.0)
        assert mechanism.reputation("a", "b") == mechanism.reputation("z", "b")

    def test_empty_network(self):
        mechanism = EigenTrustMechanism()
        mechanism.refresh()
        assert mechanism.global_scores() == {}
        assert mechanism.reputation("a", "b") == 0.0

    def test_votes_without_pending_download_ignored(self):
        mechanism = EigenTrustMechanism()
        mechanism.record_vote("a", "f1", 1.0)
        mechanism.refresh()
        assert mechanism.global_scores() == {}

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            EigenTrustMechanism(damping=1.5)


class TestPreTrusted:
    def test_no_local_trust_leaves_the_uniform_vector(self):
        # No peer is pre-trusted, so the pre-trusted distribution is
        # uniform; with only unsatisfactory transactions every row is
        # dangling and the walk stays on it.
        mechanism = EigenTrustMechanism()
        _transaction(mechanism, "a", "b", "f1", 0.0)
        _transaction(mechanism, "c", "d", "f2", 0.0)
        scores = mechanism.global_scores()
        assert scores == pytest.approx(dict.fromkeys("abcd", 0.25))
        assert mechanism.iterations_used == 1

    def test_converges_quickly(self):
        mechanism = EigenTrustMechanism()
        for index in range(10):
            _transaction(mechanism, f"d{index}", f"u{index % 3}",
                         f"f{index}", 1.0)
        mechanism.refresh()
        assert mechanism.iterations_used < 100


class TestPaperCritique:
    """Section 2: EigenTrust 'suffers from both false negatives and false
    positives' — reproduced mechanically here, measured in benchmark C2."""

    def test_false_negative_newcomer_indistinguishable_from_nobody(self):
        """An honest newcomer with a flawless (but small) record scores
        barely above peers with no service record at all."""
        mechanism = EigenTrustMechanism(damping=0.1)
        for index in range(20):
            _transaction(mechanism, f"d{index % 4}", "hub", f"h{index}", 1.0)
        _transaction(mechanism, "d0", "newcomer", "n1", 1.0)
        scores = mechanism.global_scores()
        # d1 never uploaded anything; the newcomer served perfectly once.
        assert scores["newcomer"] < scores["d1"] * 1.3
        assert scores["newcomer"] < scores["hub"] / 3

    def test_false_positive_collusion_sink_inflates_scores(self):
        """Colluders who trust only each other while honest peers get duped
        into trusting them form a random-walk sink and outrank everyone."""
        mechanism = EigenTrustMechanism(damping=0.1)
        # Honest community: mutual positive transactions.
        for index in range(6):
            _transaction(mechanism, f"h{index % 3}", f"h{(index + 1) % 3}",
                         f"hf{index}", 1.0)
        # Each honest peer was duped once into a good transaction with c0.
        for index in range(3):
            _transaction(mechanism, f"h{index}", "c0", f"bait{index}", 1.0)
        # The clique's fabricated internal trust keeps the mass inside.
        for index in range(12):
            _transaction(mechanism, f"c{index % 3}", f"c{(index + 1) % 3}",
                         f"cf{index}", 1.0)
        scores = mechanism.global_scores()
        best_colluder = max(scores[f"c{i}"] for i in range(3))
        best_honest = max(scores[f"h{i}"] for i in range(3))
        assert best_colluder > best_honest


class TestLazyRefresh:
    def test_auto_refresh_false_returns_stale_scores(self):
        mechanism = EigenTrustMechanism(auto_refresh=False)
        _transaction(mechanism, "a", "b", "f1", 1.0)
        assert mechanism.reputation("a", "b") == 0.0  # never refreshed
        mechanism.refresh()
        assert mechanism.reputation("a", "b") > 0.0
