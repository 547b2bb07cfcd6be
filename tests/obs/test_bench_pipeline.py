"""Tests for the pipeline bench section: a miniature real run and the
tier identity check.

The full section (5k/10k scaling tiers) is CI territory; here a miniature
``collect_pipeline`` run pins the snapshot's shape, and stubbed tiers
exercise every branch of the ``checksums_match`` check without waiting on
a benchmark.
"""

import pytest

from repro.core import CSR_BACKEND, select_backend
from repro.obs import bench
from repro.obs.bench import (PAIRS, POWER_BENCHES, POWER_STEPS,
                             SCALE_EVENTS, collect_pipeline)


@pytest.fixture(scope="module")
def snapshot(miniature_bench):
    return collect_pipeline(seed=5, sizes=(30,), events=5,
                            scale_sizes=(40,))


class TestMiniatureRun:
    def test_refresh_tiers_present(self, snapshot):
        tiers = snapshot["refresh"]
        assert [tier["peers"] for tier in tiers] == [30]
        assert tiers[0]["events"] == PAIRS
        assert tiers[0]["incremental_speedup"]["median"] > 0
        # Every round's full rebuild reproduced the patched checksums.
        assert tiers[0]["checksums_match"] is True

    def test_refresh_tiers_sorted_smallest_first(self, miniature_bench):
        tiers = collect_pipeline(seed=5, sizes=(40, 20), events=5)["refresh"]
        assert [tier["peers"] for tier in tiers] == [20, 40]

    def test_csr_section_present(self, snapshot):
        csr = snapshot["csr_vs_dense"]
        assert csr["auto_selects"] == "csr"
        assert csr["results_max_abs_diff"] < 1e-9
        assert csr["speedup"]["median"] > 0

    def test_scaling_entries_are_bit_identical(self, snapshot):
        entries = snapshot["scaling"]
        assert [entry["peers"] for entry in entries] == [40]
        entry = entries[0]
        # The incremental replay must equal a forced full rebuild.
        assert entry["checksums_match"] is True
        assert entry["events"] == SCALE_EVENTS
        refresh = entry["refresh"]
        assert (0 < refresh["min_seconds"] <= refresh["median_seconds"]
                <= refresh["p95_seconds"])
        assert refresh["mean_seconds"] > 0
        assert snapshot["checks"] == {"checksums_match": True}

    def test_dense_speedup_still_reported(self, snapshot):
        dense = snapshot["dense_vs_csr"]
        assert dense["auto_selects"] == "dense"
        assert dense["speedup"]["median"] > 0

    def test_sparse_kernel_section_present(self, snapshot):
        csr = snapshot["csr_sparse_vs_dense"]
        assert csr["auto_selects"] == "csr"
        assert csr["results_max_abs_diff"] < 1e-9
        assert csr["speedup"]["median"] > 0

    def test_stamp_covers_scaling_knobs(self, snapshot, miniature_bench):
        # The tier list is part of the stamped config: a different one
        # must change the config hash.
        other = collect_pipeline(seed=5, sizes=(30,), events=5,
                                 scale_sizes=(30,))
        assert snapshot["seed"] == 5
        assert other["config_hash"] != snapshot["config_hash"]


class TestPowerBenchKernels:
    """Each csr section times the kernel it is named for, at full size.

    ``POWER_BENCHES`` was imported before the miniature fixture patched
    the module, so these are the committed shapes."""

    @pytest.mark.parametrize("name,kernel", [
        ("csr_vs_dense", "_csr_dense_kernel"),
        ("csr_sparse_vs_dense", "_csr_csr_kernel")])
    def test_csr_section_runs_its_kernel(self, csr_kernels_taken, name,
                                         kernel):
        (nodes, density), = [(nodes, density)
                             for entry, nodes, density, *_ in POWER_BENCHES
                             if entry == name]
        matrix = bench._random_matrix(5, nodes, density)
        assert select_backend(matrix) is CSR_BACKEND
        CSR_BACKEND.power(matrix, POWER_STEPS)
        assert csr_kernels_taken == [kernel]


class TestChecks:
    @pytest.fixture
    def stub_tiers(self, monkeypatch):
        """Tiers that report the given match flags, without timing."""
        monkeypatch.setattr(bench, "_bench_power", lambda *args: {"x": 1})

        def stub(flags):
            refresh, scaling = iter(flags["refresh"]), iter(flags["scaling"])
            monkeypatch.setattr(bench, "_bench_refresh", lambda *args: {
                "checksums_match": next(refresh)})
            monkeypatch.setattr(bench, "_bench_scaling", lambda *args: {
                "checksums_match": next(scaling)})
        return stub

    def test_checks_present_without_scaling_tiers(self, stub_tiers):
        stub_tiers({"refresh": [True], "scaling": []})
        snapshot = collect_pipeline(sizes=(10,))
        assert "scaling" not in snapshot
        assert snapshot["checks"] == {"checksums_match": True}

    def test_checksums_match_fails_on_any_tier_mismatch(self, stub_tiers):
        stub_tiers({"refresh": [True], "scaling": [True, False]})
        snapshot = collect_pipeline(sizes=(10,), scale_sizes=(10, 20))
        assert snapshot["checks"] == {"checksums_match": False}
        stub_tiers({"refresh": [False], "scaling": [True]})
        snapshot = collect_pipeline(sizes=(10,), scale_sizes=(10,))
        assert snapshot["checks"] == {"checksums_match": False}

    def test_checksums_match_holds_when_every_tier_matches(self,
                                                           stub_tiers):
        stub_tiers({"refresh": [True, True], "scaling": [True]})
        snapshot = collect_pipeline(sizes=(10, 20), scale_sizes=(10,))
        assert snapshot["checks"] == {"checksums_match": True}
