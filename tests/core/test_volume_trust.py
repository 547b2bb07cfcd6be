"""Tests for repro.core.volume_trust: Eqs. 4-5."""

import pytest

from repro.core import (DownloadLedger, EvaluationStore, ReputationConfig,
                        VolumeTrustAccumulator, build_volume_trust_matrix,
                        valid_download_volume)
from repro.core import volume_trust

PURE_EXPLICIT = ReputationConfig(eta=0.0, rho=1.0)


class TestLedger:
    def test_record_and_list_downloads(self):
        ledger = DownloadLedger()
        ledger.record_download("a", "b", "f1", 100.0)
        ledger.record_download("a", "b", "f2", 200.0)
        assert ledger.downloads("a", "b") == [("f1", 100.0), ("f2", 200.0)]

    def test_self_download_rejected(self):
        with pytest.raises(ValueError):
            DownloadLedger().record_download("a", "a", "f", 1.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DownloadLedger().record_download("a", "b", "f", -1.0)

    def test_uploaders_of(self):
        ledger = DownloadLedger()
        ledger.record_download("a", "b", "f", 1.0)
        ledger.record_download("a", "c", "g", 1.0)
        assert sorted(ledger.uploaders_of("a")) == ["b", "c"]

    def test_len_counts_entries(self):
        ledger = DownloadLedger()
        ledger.record_download("a", "b", "f", 1.0)
        ledger.record_download("a", "b", "f", 1.0)
        assert len(ledger) == 2

    def test_prune_drops_old_entries(self):
        ledger = DownloadLedger()
        ledger.record_download("a", "b", "f1", 1.0, timestamp=10.0)
        ledger.record_download("a", "b", "f2", 1.0, timestamp=100.0)
        assert ledger.prune_older_than(50.0) == 1
        assert ledger.downloads("a", "b") == [("f2", 1.0)]

    def test_prune_removes_empty_pairs(self):
        ledger = DownloadLedger()
        ledger.record_download("a", "b", "f", 1.0, timestamp=0.0)
        ledger.prune_older_than(10.0)
        assert list(ledger.pairs()) == []


class TestValidDownloadVolume:
    def test_eq4_weights_size_by_evaluation(self):
        ledger = DownloadLedger()
        store = EvaluationStore(config=PURE_EXPLICIT)
        ledger.record_download("a", "b", "f1", 1000.0)
        store.record_vote("a", "f1", 0.5)
        volume = valid_download_volume(ledger, store, "a", "b")
        assert volume == pytest.approx(500.0)

    def test_unevaluated_downloads_contribute_zero(self):
        ledger = DownloadLedger()
        store = EvaluationStore(config=PURE_EXPLICIT)
        ledger.record_download("a", "b", "f1", 1000.0)
        assert valid_download_volume(ledger, store, "a", "b") == 0.0

    def test_fake_downloads_contribute_nothing(self):
        # A gigabyte judged fake (evaluation 0) adds no trust.
        ledger = DownloadLedger()
        store = EvaluationStore(config=PURE_EXPLICIT)
        ledger.record_download("a", "b", "fake", 1e9)
        store.record_vote("a", "fake", 0.0)
        assert valid_download_volume(ledger, store, "a", "b") == 0.0

    def test_sums_over_files(self):
        ledger = DownloadLedger()
        store = EvaluationStore(config=PURE_EXPLICIT)
        ledger.record_download("a", "b", "f1", 100.0)
        ledger.record_download("a", "b", "f2", 300.0)
        store.record_vote("a", "f1", 1.0)
        store.record_vote("a", "f2", 1.0)
        assert valid_download_volume(ledger, store, "a", "b") == pytest.approx(400.0)

    def test_no_history_gives_zero(self):
        assert valid_download_volume(DownloadLedger(), EvaluationStore(),
                                     "a", "b") == 0.0


class TestVolumeMatrix:
    def test_eq5_row_normalization(self):
        ledger = DownloadLedger()
        store = EvaluationStore(config=PURE_EXPLICIT)
        ledger.record_download("a", "b", "f1", 300.0)
        ledger.record_download("a", "c", "f2", 100.0)
        store.record_vote("a", "f1", 1.0)
        store.record_vote("a", "f2", 1.0)
        matrix = build_volume_trust_matrix(ledger, store, PURE_EXPLICIT)
        assert matrix.get("a", "b") == pytest.approx(0.75)
        assert matrix.get("a", "c") == pytest.approx(0.25)

    def test_zero_volume_pairs_excluded(self):
        ledger = DownloadLedger()
        store = EvaluationStore(config=PURE_EXPLICIT)
        ledger.record_download("a", "b", "f1", 300.0)
        store.record_vote("a", "f1", 0.0)
        matrix = build_volume_trust_matrix(ledger, store, PURE_EXPLICIT)
        assert matrix.entry_count() == 0

    def test_direction_is_downloader_to_uploader(self):
        ledger = DownloadLedger()
        store = EvaluationStore(config=PURE_EXPLICIT)
        ledger.record_download("a", "b", "f1", 100.0)
        store.record_vote("a", "f1", 1.0)
        matrix = build_volume_trust_matrix(ledger, store, PURE_EXPLICIT)
        assert matrix.has_edge("a", "b")
        assert not matrix.has_edge("b", "a")

    def test_empty_ledger_empty_matrix(self):
        matrix = build_volume_trust_matrix(DownloadLedger(),
                                           EvaluationStore())
        assert matrix.entry_count() == 0


class TestAccumulatorCost:
    """Eq. 4 re-sums per refresh: one per pair whose inputs moved.

    A pair (i, j) moves only with a new or pruned entry of ``D_ij`` or
    with ``i``'s evaluation of a file ``D_ij`` names; re-summing every
    pair of a dirty downloader is the waste these counts keep out.
    After each refresh the patched DM must equal a full build exactly.
    """

    @pytest.fixture
    def ledger(self):
        ledger = DownloadLedger()
        ledger.record_download("a", "b", "f1", 100.0, timestamp=10.0)
        ledger.record_download("a", "c", "f2", 300.0, timestamp=20.0)
        ledger.record_download("a", "b", "shared", 50.0, timestamp=30.0)
        ledger.record_download("a", "c", "shared", 50.0, timestamp=30.0)
        ledger.record_download("d", "b", "f1", 200.0, timestamp=40.0)
        return ledger

    @pytest.fixture
    def store(self):
        store = EvaluationStore(config=PURE_EXPLICIT)
        store.record_vote("a", "f1", 0.9)
        store.record_vote("a", "f2", 0.4)
        store.record_vote("a", "shared", 0.7)
        store.record_vote("d", "f1", 0.8)
        return store

    @pytest.fixture
    def built(self, ledger, store, monkeypatch):
        accumulator = VolumeTrustAccumulator(ledger, store)
        accumulator.rebuild()
        ledger.clear_dirty()
        store.clear_dirty()
        calls = []
        resum = volume_trust.valid_download_volume

        def counted(ledger, store, downloader, uploader, **kwargs):
            calls.append((downloader, uploader))
            return resum(ledger, store, downloader, uploader, **kwargs)

        monkeypatch.setattr(volume_trust, "valid_download_volume", counted)
        return accumulator, calls

    @staticmethod
    def _assert_matches_full_build(accumulator, ledger, store):
        assert accumulator.matrix == build_volume_trust_matrix(
            ledger, store, PURE_EXPLICIT)

    def test_rebuild_sums_every_pair(self, ledger, store):
        accumulator = VolumeTrustAccumulator(ledger, store)
        accumulator.rebuild()
        self._assert_matches_full_build(accumulator, ledger, store)

    def test_vote_on_single_uploader_file_resums_one_pair(self, built,
                                                          ledger, store):
        accumulator, calls = built
        store.record_vote("a", "f2", 0.1)
        assert accumulator.refresh() == {"a"}
        assert calls == [("a", "c")]
        self._assert_matches_full_build(accumulator, ledger, store)

    def test_vote_on_undownloaded_file_resums_nothing(self, built, ledger,
                                                      store):
        accumulator, calls = built
        store.record_vote("a", "never-downloaded", 1.0)
        assert accumulator.refresh() == {"a"}
        assert calls == []
        self._assert_matches_full_build(accumulator, ledger, store)

    def test_new_download_resums_only_its_pair(self, built, ledger, store):
        accumulator, calls = built
        ledger.record_download("d", "c", "f2", 10.0, timestamp=50.0)
        store.record_vote("d", "f2", 1.0)
        assert accumulator.refresh() == {"d"}
        assert calls == [("d", "c")]
        self._assert_matches_full_build(accumulator, ledger, store)

    def test_file_from_two_uploaders_resums_both_pairs(self, built, ledger,
                                                       store):
        accumulator, calls = built
        store.record_vote("a", "shared", 0.2)
        accumulator.refresh()
        assert sorted(calls) == [("a", "b"), ("a", "c")]
        self._assert_matches_full_build(accumulator, ledger, store)

    def test_another_users_vote_on_a_downloaded_file_resums_nothing(
            self, built, ledger, store):
        # f1 is dirty, but "e" downloaded nothing and "a"'s value stands.
        accumulator, calls = built
        store.record_vote("e", "f1", 0.0)
        accumulator.refresh()
        assert calls == []
        self._assert_matches_full_build(accumulator, ledger, store)

    def test_vote_resums_only_pairs_of_the_voters_own_file(self, built,
                                                           ledger, store):
        # "a" re-evaluates f2 (fetched from "c") in the same refresh that
        # "e" votes on f1, which "a" also fetched (from "b"): only f2's
        # pair may re-sum, since "a"'s value of f1 stands.
        accumulator, calls = built
        store.record_vote("a", "f2", 0.1)
        store.record_vote("e", "f1", 0.0)
        assert accumulator.refresh() == {"a", "e"}
        assert calls == [("a", "c")]
        self._assert_matches_full_build(accumulator, ledger, store)

    def test_prune_resums_the_pruned_pairs(self, built, ledger, store):
        accumulator, calls = built
        ledger.prune_older_than(25.0)
        assert accumulator.refresh() == {"a"}
        # (a, b) kept only "shared"; (a, c) lost "f2".
        assert sorted(calls) == [("a", "b"), ("a", "c")]
        self._assert_matches_full_build(accumulator, ledger, store)
        calls.clear()
        ledger.prune_older_than(100.0)
        accumulator.refresh()
        assert calls == []  # every pair left the ledger
        assert accumulator.matrix.entry_count() == 0
        self._assert_matches_full_build(accumulator, ledger, store)

    def test_removed_evaluation_resums_its_pair(self, built, ledger, store):
        accumulator, calls = built
        store.remove("d", "f1")
        assert accumulator.refresh() == {"d"}
        assert calls == [("d", "b")]
        assert "d" not in accumulator.matrix.row_ids()
        self._assert_matches_full_build(accumulator, ledger, store)


class TestLedgerDirtyPairs:
    def test_download_and_prune_mark_pairs(self):
        ledger = DownloadLedger()
        ledger.record_download("a", "b", "f", 1.0, timestamp=0.0)
        ledger.record_download("a", "c", "g", 1.0, timestamp=10.0)
        assert ledger.dirty_pairs() == {("a", "b"), ("a", "c")}
        assert ledger.dirty_downloaders() == {"a"}
        ledger.clear_dirty()
        assert not ledger.has_dirty
        ledger.prune_older_than(5.0)
        assert ledger.dirty_pairs() == {("a", "b")}
        assert ledger.has_dirty

    def test_pairs_naming_follows_downloads_and_prunes(self):
        ledger = DownloadLedger()
        ledger.record_download("a", "b", "f", 1.0, timestamp=0.0)
        ledger.record_download("a", "c", "f", 1.0, timestamp=10.0)
        ledger.record_download("a", "c", "g", 1.0, timestamp=0.0)
        assert ledger.pairs_naming("a", {"f"}) == {("a", "b"), ("a", "c")}
        assert ledger.pairs_naming("a", {"g", "h"}) == {("a", "c")}
        assert ledger.pairs_naming("b", {"f"}) == set()
        ledger.prune_older_than(5.0)
        assert ledger.pairs_naming("a", {"f", "g"}) == {("a", "c")}
        ledger.prune_older_than(50.0)
        assert ledger.pairs_naming("a", {"f", "g"}) == set()
