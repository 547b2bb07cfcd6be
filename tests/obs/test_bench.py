"""Tests for the bench harness: stamp, timing, gates, and every section
run in miniature."""

import json
import shutil
import subprocess

import pytest

from repro.obs import bench
from repro.obs.bench import (PAIRS, SECTIONS, SNAPSHOT_SCHEMA, alternate,
                             config_hash, git_dirty, git_sha, parse_gate,
                             ratio, records, resolve, run_stamp, timing,
                             write_snapshot)


class TestStamp:
    def test_config_hash_stable_and_order_free(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert len(config_hash({"a": 1})) == 12
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_git_sha_in_this_checkout(self):
        sha = git_sha()
        assert sha == "unknown" or len(sha) == 40

    def test_git_sha_ignores_process_cwd(self, tmp_path, monkeypatch):
        # The sha names the checkout the package came from, wherever the
        # bench is launched.
        expected = git_sha()
        monkeypatch.chdir(tmp_path)
        assert git_sha() == expected

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_git_dirty_reads_porcelain_status(self, tmp_path):
        subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
        assert git_dirty(str(tmp_path)) is False
        (tmp_path / "untracked.txt").write_text("x")
        assert git_dirty(str(tmp_path)) is True

    def test_run_stamp_fields(self):
        stamp = run_stamp(7, {"x": 1})
        assert stamp["seed"] == 7
        assert stamp["schema"] == SNAPSHOT_SCHEMA
        assert stamp["config_hash"] == config_hash({"x": 1})
        assert isinstance(stamp["git_dirty"], bool)


class TestTiming:
    def test_alternate_interleaves_modes_per_round(self):
        order = []

        def mode(name):
            def run():
                order.append(name)
                return 1.0
            return run

        seconds = alternate({"a": mode("a"), "b": mode("b")}, pairs=3)
        assert order == ["a", "b"] * 3
        assert seconds == {"a": [1.0] * 3, "b": [1.0] * 3}

    def test_ratio_is_median_of_pair_ratios_with_iqr(self):
        record = ratio([2.0, 4.0, 6.0, 8.0, 10.0], [1.0, 1.0, 1.0, 1.0, 2.0])
        # Per-pair ratios 2, 4, 6, 8, 5 -> median 5, quartiles 4 and 6.
        assert record == {"median": 5.0, "iqr": 2.0, "pairs": 5}

    def test_timing_record(self):
        record = timing([0.4, 0.1, 0.2], events=100)
        assert record == {"runs": 3, "min_seconds": 0.1,
                          "median_seconds": 0.2, "events_per_s": 500.0}
        assert "events_per_s" not in timing([0.1])


class TestGates:
    def test_parse(self):
        gate = parse_gate("ratios.scan_ratio.median >= 3")
        assert (gate.path, gate.op, gate.bound) == (
            "ratios.scan_ratio.median", ">=", 3.0)
        assert str(gate) == "ratios.scan_ratio.median>=3"
        assert parse_gate("a<=1.25").holds(1.25)
        assert not parse_gate("a<=1.25").holds(1.26)
        assert parse_gate("a>=1e5").holds(1e5)

    @pytest.mark.parametrize("text", ["a<1", "a=1", "<=1", "a", "a<=",
                                      "a<=abc", "a<=nan", "a<=inf",
                                      "a b<=1"])
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_gate(text)

    def test_resolve_walks_dicts_and_list_indices(self):
        snapshot = {"refresh": [{"x": {"median": 2.5}}], "n": 3}
        assert resolve(snapshot, "refresh.0.x.median") == 2.5
        assert resolve(snapshot, "n") == 3.0

    @pytest.mark.parametrize("path", ["missing", "refresh.1", "refresh.x",
                                      "refresh.0.x", "flag", "name"])
    def test_resolve_rejects_unknown_and_non_numeric(self, path):
        snapshot = {"refresh": [{"x": {"median": 2.5}}], "flag": True,
                    "name": "dense"}
        with pytest.raises(LookupError):
            resolve(snapshot, path)


@pytest.fixture(scope="module")
def snapshots(miniature_bench):
    return {"obs": bench.collect_obs(seed=5),
            "wal": bench.collect_wal(seed=5),
            "trace": bench.collect_trace(seed=5),
            "pipeline": bench.collect_pipeline(seed=5, sizes=(30,),
                                               events=5, scale_sizes=(40,))}


def _empty_values(node, path=""):
    if isinstance(node, (dict, list)) and not node:
        yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _empty_values(child, f"{path}.{key}")


class TestSnapshot:
    def test_collect_and_write(self, snapshots, tmp_path):
        snapshot = snapshots["obs"]
        assert snapshot["checks"]["matches_null_recorder_run"] is True
        assert snapshot["checks"]["matches_null_recorder_run_n3"] is True
        assert snapshot["simulate"]["events_recorded"] > 0
        assert snapshot["chaos"]["retrievals"] > 0
        assert "pipeline.refresh" in snapshot["profiler"]
        path = tmp_path / "BENCH_obs.json"
        write_snapshot(str(path), snapshot)
        loaded = json.loads(path.read_text())
        assert loaded["seed"] == 5
        assert "instrumentation_overhead" in loaded["ratios"]

    def test_every_section_collected(self, snapshots):
        assert set(snapshots) == set(SECTIONS)

    def test_no_value_is_an_empty_dict_or_list(self, snapshots):
        for section, snapshot in snapshots.items():
            assert list(_empty_values(snapshot)) == [], section

    def test_every_identity_check_holds(self, snapshots):
        for section, snapshot in snapshots.items():
            assert snapshot["checks"], section
            assert all(snapshot["checks"].values()), section

    def test_every_ratio_is_a_median_of_pairs(self, snapshots):
        for section, snapshot in snapshots.items():
            found = list(records(snapshot))
            assert any("iqr" in record for _, record in found), section
            for path, record in found:
                if "iqr" in record:
                    assert record["pairs"] == PAIRS, path
                    assert record["iqr"] >= 0 and record["median"] > 0, path
                else:
                    assert (0 < record["min_seconds"]
                            <= record["median_seconds"]), path

    def test_obs_compares_published_checksums(self, snapshots):
        checksums = snapshots["obs"]["simulate"]["checksums"]
        assert set(checksums) == {"trust", "reputation"}

    def test_obs_reports_span_counts(self, snapshots):
        spans = snapshots["obs"]["spans"]
        assert spans["span_events_full"] > spans["span_events_sampled"] > 0


class TestWalSection:
    def test_every_mode_matches_the_baseline(self, snapshots):
        snapshot = snapshots["wal"]
        assert snapshot["checks"]["matches_baseline"] is True
        assert set(snapshot["timings"]) == {"off", "buffered", "batch",
                                            "always"}
        assert snapshot["outcome"]["engine_events"] > 0

    def test_journalled_modes_write_equal_records(self, snapshots):
        counts = snapshots["wal"]["wal_records"]
        assert counts["off"] == 0
        assert counts["buffered"] == counts["batch"] == counts["always"] > 0

    def test_slowdowns_are_paired_against_off(self, snapshots):
        assert set(snapshots["wal"]["ratios"]) == {
            "buffered_slowdown", "batch_slowdown", "always_slowdown"}


class TestChecksCatchDivergence:
    """A mode that reaches a different outcome must flip its check."""

    def _perturbing(self, monkeypatch, diverges):
        real = bench._simulate

        def perturbed(shape, seed, recorder=bench.NULL_RECORDER,
                      wal_dir=None, fsync="none"):
            seconds, outcome, wal_records = real(shape, seed, recorder,
                                                 wal_dir, fsync)
            if diverges(recorder, fsync):
                outcome = dict(outcome, checksums={"trust": "x",
                                                   "reputation": "x"})
            return seconds, outcome, wal_records

        monkeypatch.setattr(bench, "_simulate", perturbed)

    def test_wal_mode_with_other_checksums_fails(self, miniature_bench,
                                                 monkeypatch):
        self._perturbing(monkeypatch, lambda _, fsync: fsync == "always")
        snapshot = bench.collect_wal(seed=5)
        assert snapshot["checks"]["matches_baseline"] is False

    def test_recorder_run_with_other_checksums_fails(self, miniature_bench,
                                                     monkeypatch):
        self._perturbing(monkeypatch,
                         lambda recorder, _: recorder.enabled)
        snapshot = bench.collect_obs(seed=5)
        assert snapshot["checks"]["matches_null_recorder_run"] is False
        assert snapshot["checks"]["matches_null_recorder_run_n3"] is False
        # The three recorder runs still agree with each other.
        assert snapshot["checks"]["matches_instrumented_run"] is True
