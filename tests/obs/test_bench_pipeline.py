"""Tests for the pipeline bench snapshot: gate helpers and a tiny real run.

The full bench (5k/10k tiers) is CI territory; here a miniature
``collect_pipeline_snapshot`` run pins the snapshot's shape, and the gate
helpers (``scaling_identical`` / ``csr_speedup``) are exercised against
synthetic snapshots so every branch the CI gate relies on is covered
without waiting on a benchmark.
"""

import pytest

from repro.obs.bench_pipeline import (collect_pipeline_snapshot, csr_speedup,
                                      dense_speedup, incremental_speedup,
                                      scaling_identical)


@pytest.fixture(scope="module")
def snapshot():
    return collect_pipeline_snapshot(seed=5, sizes=(30,), events=3,
                                     scale_sizes=(40,), scale_events=4)


class TestMiniatureRun:
    def test_refresh_tiers_present(self, snapshot):
        assert [tier["peers"] for tier in snapshot["refresh"]] == [30]
        assert incremental_speedup(snapshot, 30) > 0

    def test_csr_section_present(self, snapshot):
        csr = snapshot["csr"]
        assert csr["auto_selects"] == "csr"
        assert csr["results_max_abs_diff"] < 1e-9
        assert csr_speedup(snapshot) > 0

    def test_scaling_entries_are_bit_identical(self, snapshot):
        entries = snapshot["scaling"]
        assert [entry["peers"] for entry in entries] == [40]
        entry = entries[0]
        # The incremental replay must equal a forced full rebuild.
        assert entry["checksums_match"] is True
        assert entry["events"] == 4
        assert 0 < entry["refresh_p50_seconds"] <= entry["refresh_p95_seconds"]
        assert entry["refresh_seconds"] > 0
        assert scaling_identical(snapshot) is True

    def test_dense_speedup_still_reported(self, snapshot):
        assert dense_speedup(snapshot) > 0

    def test_stamp_covers_scaling_knobs(self, snapshot):
        # The scaling knobs are part of the stamped config: a different
        # event count or tier list must change the config hash.
        other = collect_pipeline_snapshot(seed=5, sizes=(30,), events=3,
                                          scale_sizes=(40,), scale_events=2)
        assert snapshot["seed"] == 5
        assert other["config_hash"] != snapshot["config_hash"]


class TestGateHelpers:
    def test_scaling_identical_requires_entries(self):
        assert scaling_identical({"scaling": []}) is False

    def test_scaling_identical_rejects_mismatch(self):
        snapshot = {"scaling": [{"peers": 10, "checksums_match": True},
                                {"peers": 20, "checksums_match": False}]}
        assert scaling_identical(snapshot) is False

    def test_scaling_identical_accepts_serial_only_entries(self):
        snapshot = {"scaling": [{"peers": 10, "checksums_match": True}]}
        assert scaling_identical(snapshot) is True
