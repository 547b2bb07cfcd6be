"""Tests for the Tit-for-Tat baseline."""

import pytest

from repro.baselines import TitForTatMechanism

DAY = 24 * 3600.0


class TestPrivateHistory:
    def test_trust_equals_bytes_received(self):
        mechanism = TitForTatMechanism()
        mechanism.record_download("a", "b", "f1", 100.0)
        mechanism.record_download("a", "b", "f2", 50.0)
        assert mechanism.reputation("a", "b") == pytest.approx(150.0)

    def test_trust_is_directional(self):
        mechanism = TitForTatMechanism()
        mechanism.record_download("a", "b", "f1", 100.0)
        assert mechanism.reputation("a", "b") > 0
        assert mechanism.reputation("b", "a") == 0.0

    def test_trust_is_private(self):
        """c learns nothing from a's downloads — the coverage problem."""
        mechanism = TitForTatMechanism()
        mechanism.record_download("a", "b", "f1", 100.0)
        assert mechanism.reputation("c", "b") == 0.0

    def test_has_history(self):
        mechanism = TitForTatMechanism()
        assert not mechanism.has_history("a", "b")
        mechanism.record_download("a", "b", "f1", 1.0)
        assert mechanism.has_history("a", "b")

    def test_no_file_scores(self):
        assert TitForTatMechanism().file_score("a", "f") is None

    def test_no_global_scores(self):
        assert TitForTatMechanism().global_scores() == {}


class TestHistoryWindow:
    def test_recent_history_survives_refresh(self):
        mechanism = TitForTatMechanism()
        mechanism.record_download("a", "b", "f1", 100.0, timestamp=10 * DAY)
        mechanism.record_download("a", "c", "f2", 10.0, timestamp=20 * DAY)
        mechanism.refresh()
        assert mechanism.reputation("a", "b") == pytest.approx(100.0)

    def test_unwindowed_history_never_expires(self):
        mechanism = TitForTatMechanism()
        mechanism.record_download("a", "b", "f1", 100.0, timestamp=0.0)
        mechanism.record_download("a", "b", "f2", 1.0, timestamp=365 * DAY)
        mechanism.refresh()
        assert mechanism.reputation("a", "b") == pytest.approx(101.0)
