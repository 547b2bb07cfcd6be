"""Tests for the command-line interface."""

import copy
import functools
import json

import pytest

from repro.cli import build_parser, main
from repro.obs import Recorder, read_events
from repro.obs.traceio import iter_trace_events
from repro.simulator import FileSharingSimulation
from repro.simulator.scenarios import chaos_storm
from repro.traces import read_csv, read_jsonl


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--mechanism", "magic"])


class TestGenTrace:
    def test_writes_jsonl(self, tmp_path, capsys):
        output = tmp_path / "trace.jsonl"
        code = main(["gen-trace", str(output), "--users", "60",
                     "--files", "80", "--actions", "400", "--days", "5",
                     "--library", "5", "--seed", "3"])
        assert code == 0
        trace = read_jsonl(output)
        assert len(trace) > 300
        assert "download records" in capsys.readouterr().out

    def test_writes_csv(self, tmp_path, capsys):
        output = tmp_path / "trace.csv"
        code = main(["gen-trace", str(output), "--users", "60",
                     "--files", "80", "--actions", "200", "--days", "5"])
        assert code == 0
        assert len(read_csv(output)) > 100

    def test_deterministic_for_seed(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        argv = ["gen-trace", None, "--users", "50", "--files", "60",
                "--actions", "200", "--days", "5", "--seed", "9"]
        argv[1] = str(a)
        main(list(argv))
        argv[1] = str(b)
        main(list(argv))
        assert a.read_text() == b.read_text()


class TestTraceStats:
    def test_stats_on_generated_trace(self, tmp_path, capsys):
        output = tmp_path / "trace.jsonl"
        main(["gen-trace", str(output), "--users", "60", "--files", "80",
              "--actions", "400", "--days", "5"])
        capsys.readouterr()
        code = main(["trace-stats", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Zipf" in out
        assert "records" in out

    def test_empty_trace_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace-stats", str(path)]) == 1

    @pytest.mark.parametrize(
        "line", ["[[[[[[[[[[", '{"uploader_id": "a"}', "[" * 200_000],
        ids=["undecodable", "missing-field", "deep-nesting"])
    def test_malformed_trace_fails_with_message(self, tmp_path, capsys, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        assert main(["trace-stats", str(path)]) == 1
        assert "bad.jsonl:1" in capsys.readouterr().err

    def test_csv_missing_column_fails_with_message(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("uploader_id,downloader_id,content_hash,filename\n"
                        "a,b,f1,f1.dat\n")
        assert main(["trace-stats", str(path)]) == 1
        assert "missing field 'timestamp'" in capsys.readouterr().err


class TestCoverage:
    def test_coverage_sweep_prints_rows(self, capsys):
        code = main(["coverage", "--users", "80", "--files", "100",
                     "--actions", "500", "--days", "5", "--library", "10",
                     "--k", "0.1", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "10%" in out and "100%" in out

    def test_invalid_k_rejected(self, capsys):
        assert main(["coverage", "--k", "1.5"]) == 1


class TestSimulate:
    def test_null_simulation(self, capsys):
        code = main(["simulate", "--mechanism", "null", "--honest", "12",
                     "--polluters", "2", "--free-riders", "2",
                     "--catalog", "40", "--days", "0.5",
                     "--request-rate", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall fake fraction" in out
        assert "honest" in out

    def test_multidimensional_simulation(self, capsys):
        code = main(["simulate", "--honest", "12", "--polluters", "2",
                     "--catalog", "40", "--days", "0.5",
                     "--request-rate", "0.01"])
        assert code == 0
        assert "multidimensional" in capsys.readouterr().out

    def test_toggles_accepted(self, capsys):
        code = main(["simulate", "--mechanism", "tit-for-tat",
                     "--honest", "10", "--catalog", "30", "--days", "0.25",
                     "--request-rate", "0.01", "--no-filtering",
                     "--no-differentiation"])
        assert code == 0

    def test_scenario_keeps_every_preset_field(self, tmp_path, capsys):
        # chaos-storm ticks every 2 h, not the default 6 h.
        trace = tmp_path / "storm.jsonl"
        assert main(["simulate", "--scenario", "chaos-storm", "--seed", "3",
                     "--trace-out", str(trace)]) == 0
        events = []
        FileSharingSimulation(chaos_storm(3),
                              recorder=Recorder(trace_sink=events)).run()

        def ticks(records):
            return sum(1 for record in records
                       if record["event"] == "maintenance")

        assert ticks(read_events(str(trace))) == ticks(events) == 12


_SIMULATE_SMALL = ["simulate", "--honest", "8", "--free-riders", "2",
                   "--polluters", "2", "--catalog", "30", "--days", "0.25",
                   "--request-rate", "0.02", "--seed", "5"]
_CHAOS_SMALL = ["chaos", "--loss", "0.1", "--churn", "0.3", "--peers", "12",
                "--files", "16", "--rounds", "8", "--seed", "3"]


class TestObservabilityOutputs:
    def test_simulate_writes_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(_SIMULATE_SMALL + ["--multitrust-steps", "3",
                                       "--trace-out", str(trace),
                                       "--metrics-out", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "events" in out
        assert "outstanding fake copies" in out
        events = read_events(str(trace))
        kinds = {event["event"] for event in events}
        assert {"request", "download",
                "multitrust_iteration"} <= kinds
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["sim.requests.total"] > 0
        assert "sim.wait_seconds{cls=honest}" in snapshot["histograms"]

    def test_simulate_trace_deterministic_for_seed(self, tmp_path):
        paths = [tmp_path / name for name in
                 ("a.jsonl", "b.jsonl", "am.json", "bm.json")]
        for trace, metric in ((paths[0], paths[2]), (paths[1], paths[3])):
            main(_SIMULATE_SMALL + ["--trace-out", str(trace),
                                    "--metrics-out", str(metric)])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[2].read_bytes() == paths[3].read_bytes()

    def test_chaos_writes_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(_CHAOS_SMALL + ["--trace-out", str(trace),
                                    "--metrics-out", str(metrics)])
        assert code == 0
        assert "incomplete" in capsys.readouterr().out
        kinds = {event["event"] for event in read_events(str(trace))}
        assert {"chaos_cell_start", "dht_lookup", "dht_retrieve",
                "chaos_cell_end"} <= kinds
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["dht.lookups"] > 0

    def test_chaos_trace_deterministic_for_seed(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            main(_CHAOS_SMALL + ["--trace-out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_no_flags_writes_nothing(self, tmp_path, capsys):
        code = main(_SIMULATE_SMALL)
        assert code == 0
        assert "wrote" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestReport:
    def _trace(self, tmp_path):
        trace = tmp_path / "events.jsonl"
        main(_SIMULATE_SMALL + ["--multitrust-steps", "3",
                                "--trace-out", str(trace)])
        return trace

    def test_report_renders_sections(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Event counts" in out
        assert "wait p95" in out
        assert "Multitrust convergence" in out
        assert "honest" in out

    def test_report_on_chaos_trace_shows_dht(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        main(_CHAOS_SMALL + ["--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "DHT lookup cost" in out
        assert "failed lookups" in out

    def test_missing_trace_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_empty_trace_summarises_to_nothing(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["report", str(path)]) == 0
        assert "trace is empty" in capsys.readouterr().out

    def test_empty_trace_json_has_full_schema(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["report", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_events"] == 0
        assert payload["event_counts"] == {}

    def test_corrupt_trace_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["report", str(path)]) == 1
        assert "cannot read" in capsys.readouterr().err


@pytest.fixture(scope="module")
def bench_memo(miniature_bench):
    """Miniature ``repro bench`` collections, one per section and option
    set, shared by every test in this module that asks for the same."""
    collectors = dict(miniature_bench.SECTIONS)
    snapshots = {}

    def collect(section, **options):
        key = (section, repr(sorted(options.items())))
        if key not in snapshots:
            snapshots[key] = collectors[section](**options)
        return copy.deepcopy(snapshots[key])

    return collect


@pytest.fixture
def shared_bench(bench_memo, monkeypatch):
    """``bench.SECTIONS`` answering from :func:`bench_memo`: each test gets
    a snapshot collected with exactly the options the CLI passed."""
    from repro.obs import bench
    for section in tuple(bench.SECTIONS):
        monkeypatch.setitem(bench.SECTIONS, section,
                            functools.partial(bench_memo, section))
    return bench


class TestBenchObs:
    def test_writes_stamped_snapshot(self, tmp_path, capsys,
                                     shared_bench):
        out = tmp_path / "BENCH_obs.json"
        assert main(["bench", "obs", "--out", str(out), "--seed", "5"]) == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["seed"] == 5
        assert {"config_hash", "git_sha", "git_dirty", "timings", "ratios",
                "checks"} <= set(snapshot)
        output = capsys.readouterr().out
        assert "ratios.instrumentation_overhead" in output
        assert "check passed: matches_null_recorder_run" in output


class TestReportJson:
    def test_json_output_round_trips(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        main(_SIMULATE_SMALL + ["--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["report", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 2
        assert payload["total_events"] > 0
        assert "download" in payload["event_counts"]
        assert "Event counts" not in json.dumps(payload)


class TestAlertsOut:
    def test_chaos_alerts_written_and_replayable(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        alerts = tmp_path / "alerts.jsonl"
        code = main(["chaos", "--loss", "0.2", "--churn", "0.5",
                     "--peers", "12", "--files", "16", "--rounds", "20",
                     "--seed", "3", "--trace-out", str(trace),
                     "--alerts-out", str(alerts)])
        assert code == 0
        assert "alerts" in capsys.readouterr().out
        lines = [json.loads(line) for line
                 in alerts.read_text().splitlines()]
        assert lines, "lossy churny chaos must raise alerts"
        assert all({"t", "detector", "severity", "message"} <= set(line)
                   for line in lines)
        # The trace carries the same alerts, and offline replay agrees.
        capsys.readouterr()
        assert main(["monitor", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"reproduced all {len(lines)} recorded alerts" in out

    def test_alerts_out_deterministic_for_seed(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            main(_CHAOS_SMALL + ["--alerts-out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_accepts_alerts_out(self, tmp_path):
        alerts = tmp_path / "alerts.jsonl"
        assert main(_SIMULATE_SMALL + ["--alerts-out", str(alerts)]) == 0
        assert alerts.exists()


class TestMonitorCommand:
    def test_quiet_trace_reports_no_alerts(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        main(_SIMULATE_SMALL + ["--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["monitor", str(trace)]) == 0
        assert "no alerts raised" in capsys.readouterr().out

    def test_monitor_writes_alerts_out(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        main(_CHAOS_SMALL + ["--loss", "0.3", "--trace-out", str(trace)])
        capsys.readouterr()
        alerts = tmp_path / "alerts.jsonl"
        assert main(["monitor", str(trace),
                     "--alerts-out", str(alerts)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert alerts.exists()

    def test_divergent_trace_fails_replay_check(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        trace.write_text(
            json.dumps({"seq": 0, "t": 1.0, "event": "request",
                        "cls": "honest"}) + "\n" +
            json.dumps({"seq": 1, "t": 2.0, "event": "alert",
                        "detector": "ghost", "severity": "critical",
                        "message": "never reproducible"}) + "\n")
        assert main(["monitor", str(trace)]) == 1
        assert "replay check FAILED" in capsys.readouterr().err

    def test_missing_trace_fails(self, tmp_path, capsys):
        assert main(["monitor", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_empty_trace_is_quiet(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["monitor", str(path)]) == 0
        assert "no alerts raised" in capsys.readouterr().out


class TestDashboardCommand:
    def test_writes_selfcontained_html(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        main(_SIMULATE_SMALL + ["--trace-out", str(trace)])
        capsys.readouterr()
        out = tmp_path / "dash.html"
        assert main(["dashboard", str(trace), "-o", str(out)]) == 0
        assert "bytes of HTML" in capsys.readouterr().out
        document = out.read_text()
        assert document.startswith("<!DOCTYPE html>")
        assert "<script" not in document
        assert "https://" not in document

    def test_missing_trace_fails(self, tmp_path, capsys):
        assert main(["dashboard", str(tmp_path / "no.jsonl"),
                     "-o", str(tmp_path / "dash.html")]) == 1
        assert not (tmp_path / "dash.html").exists()


class TestDiffTraceCommand:
    def _traces(self, tmp_path):
        calm = tmp_path / "calm.jsonl"
        rough = tmp_path / "rough.jsonl"
        main(_CHAOS_SMALL + ["--loss", "0.0", "--churn", "0.0",
                             "--trace-out", str(calm)])
        main(_CHAOS_SMALL + ["--loss", "0.4", "--churn", "0.6",
                             "--trace-out", str(rough)])
        return calm, rough

    def test_identical_traces_report_no_regressions(self, tmp_path,
                                                    capsys):
        calm, _ = self._traces(tmp_path)
        capsys.readouterr()
        assert main(["diff-trace", str(calm), str(calm)]) == 0
        assert "no regressions flagged" in capsys.readouterr().out

    def test_degraded_trace_flags_regressions_in_text(self, tmp_path,
                                                      capsys):
        calm, rough = self._traces(tmp_path)
        capsys.readouterr()
        assert main(["diff-trace", str(calm), str(rough),
                     "--label-a", "calm", "--label-b", "rough"]) == 0
        out = capsys.readouterr().out
        assert "Trace diff" in out
        assert "regressions:" in out

    def test_fail_on_regression_sets_exit_code(self, tmp_path, capsys):
        calm, rough = self._traces(tmp_path)
        capsys.readouterr()
        assert main(["diff-trace", str(calm), str(rough),
                     "--fail-on-regression"]) == 1

    def test_json_output(self, tmp_path, capsys):
        calm, rough = self._traces(tmp_path)
        capsys.readouterr()
        assert main(["diff-trace", str(calm), str(rough), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"a", "b", "deltas", "regressions"} <= set(payload)
        assert payload["a"]["summary"]["schema"] == 2

    def test_missing_side_fails(self, tmp_path, capsys):
        calm, _ = self._traces(tmp_path)
        assert main(["diff-trace", str(calm),
                     str(tmp_path / "absent.jsonl")]) == 1


class TestBenchPipeline:
    _SMALL = ["--sizes", "20", "--events", "5", "--seed", "5"]

    def test_writes_stamped_snapshot(self, tmp_path, capsys,
                                     miniature_bench):
        out = tmp_path / "BENCH_pipeline.json"
        assert main(["bench", "pipeline", "--out", str(out)]
                    + self._SMALL) == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["seed"] == 5
        assert {"config_hash", "git_sha", "git_dirty", "refresh",
                "dense_vs_csr", "csr_vs_dense",
                "csr_sparse_vs_dense"} <= set(snapshot)
        assert snapshot["refresh"][0]["peers"] == 20
        assert snapshot["dense_vs_csr"]["density"] > 0.3
        output = capsys.readouterr().out
        assert "refresh.0.incremental_speedup" in output
        assert "check passed: checksums_match" in output

    def test_history_appended_and_generous_gate_passes(self, tmp_path,
                                                       capsys,
                                                       shared_bench):
        out = tmp_path / "BENCH_pipeline.json"
        history = tmp_path / "BENCH_pipeline_history.jsonl"
        code = main(["bench", "pipeline", "--out", str(out),
                     "--history", str(history),
                     "--gate", "refresh.0.incremental_speedup.median>=0.001",
                     "--gate", "dense_vs_csr.speedup.median>=0.001"]
                    + self._SMALL)
        assert code == 0
        assert ("gate passed: dense_vs_csr.speedup.median>=0.001"
                in capsys.readouterr().out)
        lines = history.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["seed"] == 5

    def test_impossible_gate_fails(self, tmp_path, capsys, shared_bench):
        out = tmp_path / "BENCH_pipeline.json"
        code = main(["bench", "pipeline", "--out", str(out),
                     "--gate", "refresh.0.incremental_speedup.median>=1e9"]
                    + self._SMALL)
        assert code == 1
        assert "gate failed" in capsys.readouterr().err


class TestBenchObsGate:
    def test_history_appended_and_generous_gate_passes(self, tmp_path,
                                                       capsys,
                                                       shared_bench):
        out = tmp_path / "BENCH_obs.json"
        history = tmp_path / "BENCH_history.jsonl"
        code = main(["bench", "obs", "--out", str(out), "--seed", "5",
                     "--history", str(history), "--gate",
                     "ratios.instrumentation_overhead.median<=1000"])
        assert code == 0
        assert "gate passed" in capsys.readouterr().out
        lines = history.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["seed"] == 5

    def test_impossible_gate_fails(self, tmp_path, capsys, shared_bench):
        out = tmp_path / "BENCH_obs.json"
        code = main(["bench", "obs", "--out", str(out), "--seed", "5",
                     "--gate", "ratios.instrumentation_overhead.median<=0"])
        assert code == 1
        assert "gate failed" in capsys.readouterr().err


def _stub_snapshot(**_options):
    return {"seed": 1, "config_hash": "c", "git_sha": "s", "git_dirty": False,
            "timings": {"a": {"runs": 5, "min_seconds": 0.1,
                              "median_seconds": 0.2}},
            "ratios": {"a_over_b": {"median": 1.2, "iqr": 0.1, "pairs": 5}},
            "checks": {"identical": True}}


class TestBenchGates:
    """``--gate`` parsing and evaluation, over a stubbed section."""

    @pytest.fixture
    def stubbed(self, monkeypatch, tmp_path):
        from repro.obs import bench
        monkeypatch.setitem(bench.SECTIONS, "obs", _stub_snapshot)
        return ["bench", "obs", "--out", str(tmp_path / "b.json")]

    @pytest.mark.parametrize("text", ["ratios.a_over_b.median<1",
                                      "ratios.a_over_b.median<=abc",
                                      "<=1", "ratios.a_over_b.median"])
    def test_malformed_gate_exits_2(self, stubbed, text, capsys):
        with pytest.raises(SystemExit) as error:
            main(stubbed + ["--gate", text])
        assert error.value.code == 2
        assert "malformed gate" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["ratios.a_over_b.mean",
                                      "ratio.a_over_b.median",
                                      "ratios.a_over_b", "checks.identical"])
    def test_unknown_or_non_numeric_path_exits_2(self, stubbed, path,
                                                 capsys):
        code = main(stubbed + ["--gate", "ratios.a_over_b.median<=2",
                               "--gate", f"{path}<=2"])
        assert code == 2
        assert "bad gate" in capsys.readouterr().err

    def test_gate_that_holds_exits_0(self, stubbed, capsys):
        assert main(stubbed + ["--gate", "ratios.a_over_b.median<=1.2",
                               "--gate", "timings.a.runs>=5"]) == 0
        assert capsys.readouterr().out.count("gate passed") == 2

    def test_gate_that_fails_exits_1(self, stubbed, capsys):
        assert main(stubbed + ["--gate", "ratios.a_over_b.median<=2",
                               "--gate", "ratios.a_over_b.median>=1.5"]) == 1
        assert ("gate failed: ratios.a_over_b.median>=1.5"
                in capsys.readouterr().err)

    def test_pipeline_options_rejected_elsewhere(self, stubbed, capsys):
        assert main(stubbed + ["--sizes", "10", "--events", "5"]) == 2
        assert "--sizes, --events" in capsys.readouterr().err

    @pytest.mark.parametrize("section,extra", [
        ("obs", []), ("wal", []), ("trace", []),
        ("pipeline", ["--sizes", "20", "--events", "5"])])
    def test_false_identity_flag_exits_1(self, section, extra, tmp_path,
                                         monkeypatch, capsys,
                                         shared_bench):
        from repro.obs import bench
        collect = bench.SECTIONS[section]

        def broken(**options):
            snapshot = collect(**options)
            name = sorted(snapshot["checks"])[0]
            snapshot["checks"][name] = False
            return snapshot

        monkeypatch.setitem(bench.SECTIONS, section, broken)
        # A generous gate passes; the false flag still fails the run.
        code = main(["bench", section, "--out", str(tmp_path / "b.json"),
                     "--seed", "5", "--gate", "seed>=0"] + extra)
        assert code == 1
        assert "check failed" in capsys.readouterr().err


class TestTraceOutFormats:
    def test_binary_trace_out_feeds_every_consumer(self, tmp_path, capsys):
        trace = tmp_path / "events.bin"
        assert main(_SIMULATE_SMALL + ["--trace-out", str(trace)]) == 0
        assert trace.read_bytes()[:8] == b"REPROTRC"
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        assert "Event counts" in capsys.readouterr().out
        assert main(["monitor", str(trace)]) == 0
        capsys.readouterr()
        dash = tmp_path / "dash.html"
        assert main(["dashboard", str(trace), "-o", str(dash)]) == 0
        assert dash.read_text().startswith("<!DOCTYPE html>")

    def test_binary_and_jsonl_summaries_agree(self, tmp_path, capsys):
        binary = tmp_path / "events.bin"
        jsonl = tmp_path / "events.jsonl"
        main(_SIMULATE_SMALL + ["--trace-out", str(binary)])
        main(_SIMULATE_SMALL + ["--trace-out", str(jsonl)])
        capsys.readouterr()
        assert main(["report", str(binary), "--json"]) == 0
        from_binary = json.loads(capsys.readouterr().out)
        assert main(["report", str(jsonl), "--json"]) == 0
        from_jsonl = json.loads(capsys.readouterr().out)
        assert from_binary == from_jsonl


class TestTraceSubcommands:
    def _binary(self, tmp_path):
        trace = tmp_path / "events.bin"
        main(_SIMULATE_SMALL + ["--trace-out", str(trace)])
        return trace

    def test_inspect_reports_layout(self, tmp_path, capsys):
        trace = self._binary(tmp_path)
        capsys.readouterr()
        assert main(["trace", "inspect", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "binary" in out and "Event counts" in out

    def test_inspect_json(self, tmp_path, capsys):
        trace = self._binary(tmp_path)
        capsys.readouterr()
        assert main(["trace", "inspect", str(trace), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["format"] == "binary"
        assert info["events"] > 0
        assert info["truncated"] is False

    def test_inspect_missing_file_fails(self, tmp_path, capsys):
        assert main(["trace", "inspect",
                     str(tmp_path / "absent.bin")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_convert_round_trip_is_byte_identical(self, tmp_path, capsys):
        direct = tmp_path / "direct.jsonl"
        main(_SIMULATE_SMALL + ["--trace-out", str(direct)])
        binary = tmp_path / "events.bin"
        main(_SIMULATE_SMALL + ["--trace-out", str(binary)])
        capsys.readouterr()
        recovered = tmp_path / "recovered.jsonl"
        assert main(["trace", "convert", str(binary),
                     str(recovered)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert recovered.read_bytes() == direct.read_bytes()

    def test_convert_jsonl_to_binary_and_back(self, tmp_path, capsys):
        jsonl = tmp_path / "events.jsonl"
        main(_SIMULATE_SMALL + ["--trace-out", str(jsonl)])
        binary = tmp_path / "events.bin"
        again = tmp_path / "again.jsonl"
        assert main(["trace", "convert", str(jsonl), str(binary)]) == 0
        assert main(["trace", "convert", str(binary), str(again)]) == 0
        assert again.read_bytes() == jsonl.read_bytes()

    def test_query_filters_kind_and_projects_columns(self, tmp_path,
                                                     capsys):
        trace = self._binary(tmp_path)
        capsys.readouterr()
        assert main(["trace", "query", str(trace), "--kind", "download",
                     "--columns", "cls,wait", "--limit", "5"]) == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line
                 in captured.out.splitlines()]
        assert 0 < len(lines) <= 5
        assert all(line["event"] == "download" for line in lines)
        assert all(set(line) <= {"event", "cls", "wait"}
                   for line in lines)
        assert "matched" in captured.err

    def test_query_time_window(self, tmp_path, capsys):
        trace = self._binary(tmp_path)
        capsys.readouterr()
        assert main(["trace", "query", str(trace), "--since", "100",
                     "--until", "200"]) == 0
        lines = [json.loads(line) for line
                 in capsys.readouterr().out.splitlines()]
        assert all(100 <= line["t"] < 200 for line in lines)

    def test_convert_rechunks_binary(self, tmp_path, capsys):
        trace = self._binary(tmp_path)
        capsys.readouterr()
        rechunked = tmp_path / "rechunked.bin"
        assert main(["trace", "convert", str(trace), str(rechunked),
                     "--chunk-events", "64"]) == 0
        assert "wrote" in capsys.readouterr().out
        # Same logical contents under the new chunking.
        assert main(["trace", "inspect", str(rechunked), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert main(["trace", "inspect", str(trace), "--json"]) == 0
        original = json.loads(capsys.readouterr().out)
        assert info["events"] == original["events"]
        assert info["kinds"] == original["kinds"]
        assert info["chunks"] == -(-original["events"] // 64)
        assert list(iter_trace_events(str(rechunked))) \
            == list(iter_trace_events(str(trace)))

    def test_bad_chunk_events_rejected(self, tmp_path, capsys):
        trace = self._binary(tmp_path)
        assert main(["trace", "convert", str(trace),
                     str(tmp_path / "o.bin"), "--chunk-events", "0"]) == 2


class TestSpanTracing:
    def _span_trace(self, tmp_path, name="spans.bin", extra=()):
        trace = tmp_path / name
        main(_SIMULATE_SMALL + ["--spans", "--trace-out", str(trace)]
             + list(extra))
        return trace

    def test_spans_flag_adds_span_records(self, tmp_path, capsys):
        trace = self._span_trace(tmp_path)
        spans = [event for event in iter_trace_events(str(trace))
                 if event["event"] == "span"]
        assert spans
        assert all({"span", "trace", "t_end", "dur", "busy"} <= set(event)
                   for event in spans)

    def test_span_trace_deterministic_for_seed(self, tmp_path):
        a = self._span_trace(tmp_path, "a.bin")
        b = self._span_trace(tmp_path, "b.bin")
        assert a.read_bytes() == b.read_bytes()

    def test_span_trace_convert_round_trip(self, tmp_path, capsys):
        trace = self._span_trace(tmp_path)
        capsys.readouterr()
        jsonl = tmp_path / "spans.jsonl"
        again = tmp_path / "again.bin"
        assert main(["trace", "convert", str(trace), str(jsonl)]) == 0
        assert main(["trace", "convert", str(jsonl), str(again)]) == 0
        assert again.read_bytes() == trace.read_bytes()

    def test_sampling_thins_traces(self, tmp_path):
        def span_count(extra):
            trace = self._span_trace(tmp_path, "sampled.bin", extra)
            return sum(1 for event in iter_trace_events(str(trace))
                       if event["event"] == "span")

        full = span_count(())
        sampled = span_count(["--span-sample", "8"])
        assert 0 < sampled < full

    def test_invalid_sample_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(_SIMULATE_SMALL + ["--span-sample", "0"])
        assert excinfo.value.code == 2
        assert "--span-sample" in capsys.readouterr().err

    def test_trace_spans_reports_operations_and_paths(self, tmp_path,
                                                      capsys):
        trace = self._span_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", "spans", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "operation" in out and "p95" in out
        assert "sim.request" in out
        assert "critical path" in out
        assert "consistency" in out

    def test_trace_spans_json_with_op_filter(self, tmp_path, capsys):
        trace = self._span_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", "spans", str(trace), "--json",
                     "--op", "sim.request"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["operations"]) == {"sim.request"}
        assert payload["operations"]["sim.request"]["count"] > 0
        assert payload["critical_paths"]["sim.request"]

    def test_trace_spans_on_chaos_shows_refresh_path(self, tmp_path,
                                                     capsys):
        trace = tmp_path / "chaos.bin"
        main(_CHAOS_SMALL + ["--spans", "--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["trace", "spans", str(trace), "--json",
                     "--op", "mechanism.refresh"]) == 0
        payload = json.loads(capsys.readouterr().out)
        path = payload["critical_paths"]["mechanism.refresh"]
        assert path[0]["name"] == "mechanism.refresh"
        assert any(step["name"].startswith("dht.") for step in path)
        assert payload["inconsistent"] == 0

    def test_trace_spans_without_spans_exits_cleanly(self, tmp_path,
                                                     capsys):
        trace = tmp_path / "plain.bin"
        main(_SIMULATE_SMALL + ["--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["trace", "spans", str(trace)]) == 0
        assert "no span records" in capsys.readouterr().out

    def test_flame_writes_deterministic_svg(self, tmp_path, capsys):
        trace = self._span_trace(tmp_path)
        capsys.readouterr()
        first, second = tmp_path / "a.svg", tmp_path / "b.svg"
        folded = tmp_path / "flame.folded"
        assert main(["flame", str(trace), "-o", str(first),
                     "--folded", str(folded)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["flame", str(trace), "-o", str(second)]) == 0
        document = first.read_text()
        assert document.startswith("<svg ")
        assert document == second.read_text()
        lines = folded.read_text().splitlines()
        assert lines and all(line.rsplit(" ", 1)[1].isdigit()
                             for line in lines)

    def test_flame_without_spans_writes_nothing(self, tmp_path, capsys):
        trace = tmp_path / "plain.bin"
        main(_SIMULATE_SMALL + ["--trace-out", str(trace)])
        capsys.readouterr()
        svg = tmp_path / "flame.svg"
        assert main(["flame", str(trace), "-o", str(svg)]) == 0
        assert "no span records" in capsys.readouterr().out
        assert not svg.exists()

    def test_flame_rejects_tiny_width(self, tmp_path, capsys):
        trace = self._span_trace(tmp_path)
        assert main(["flame", str(trace), "--width", "100"]) == 2

    def test_bench_obs_gates_span_overheads(self, tmp_path, capsys,
                                            shared_bench):
        out = tmp_path / "BENCH_obs.json"
        assert main(["bench", "obs", "--out", str(out), "--seed", "5",
                     "--gate", "ratios.span_overhead.median<=1000",
                     "--gate", "ratios.span_sampled_overhead.median<=1000"]
                    ) == 0
        assert ("gate passed: ratios.span_sampled_overhead"
                in capsys.readouterr().out)
        snapshot = json.loads(out.read_text())
        assert snapshot["spans"]["span_events_full"] > 0
        assert snapshot["ratios"]["span_overhead"]["median"] > 0

    def test_bench_obs_impossible_sampled_gate_fails(self, tmp_path,
                                                     capsys,
                                                     shared_bench):
        out = tmp_path / "BENCH_obs.json"
        assert main(["bench", "obs", "--out", str(out), "--seed", "5",
                     "--gate", "ratios.span_sampled_overhead.median<=0"]
                    ) == 1
        assert "gate failed" in capsys.readouterr().err


class TestProfileCapture:
    def test_profile_out_then_report_folds_it_in(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        profile = tmp_path / "profile.json"
        assert main(_SIMULATE_SMALL + ["--trace-out", str(trace),
                                       "--profile-out",
                                       str(profile)]) == 0
        phases = json.loads(profile.read_text())
        assert phases, "simulate must profile at least one phase"
        assert all({"calls", "p50_seconds", "p95_seconds", "p99_seconds"}
                   <= set(stats) for stats in phases.values())
        capsys.readouterr()
        assert main(["report", str(trace), "--profile",
                     str(profile)]) == 0
        assert "Profiled sections" in capsys.readouterr().out

    def test_report_json_carries_profile(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        profile = tmp_path / "profile.json"
        main(_SIMULATE_SMALL + ["--trace-out", str(trace),
                                "--profile-out", str(profile)])
        capsys.readouterr()
        assert main(["report", str(trace), "--json", "--profile",
                     str(profile)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"]
        assert all("p95_seconds" in stats
                   for stats in payload["profile"].values())

    def test_deeply_nested_profile_fails(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        trace.write_text("")
        profile = tmp_path / "profile.json"
        profile.write_text("[" * 200_000)
        assert main(["report", str(trace), "--profile", str(profile)]) == 1
        assert "cannot read profile" in capsys.readouterr().err

    def test_missing_profile_fails(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        trace.write_text("")
        assert main(["report", str(trace), "--profile",
                     str(tmp_path / "absent.json")]) == 1
        assert "cannot read profile" in capsys.readouterr().err


class TestBenchTrace:
    _SMALL = ["--seed", "5"]

    def test_writes_stamped_snapshot(self, tmp_path, capsys,
                                     shared_bench):
        out = tmp_path / "BENCH_trace.json"
        assert main(["bench", "trace", "--out", str(out)]
                    + self._SMALL) == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["seed"] == 5
        assert snapshot["events"] == shared_bench.TRACE_EVENTS
        assert {"config_hash", "git_sha", "git_dirty", "binary", "jsonl"} \
            <= set(snapshot)
        assert snapshot["checks"] == {"scan_aggregates_match": True,
                                      "roundtrip_identical": True}
        assert ("check passed: roundtrip_identical"
                in capsys.readouterr().out)

    def test_history_appended_and_generous_gate_passes(self, tmp_path,
                                                       capsys,
                                                       shared_bench):
        out = tmp_path / "BENCH_trace.json"
        history = tmp_path / "BENCH_history.jsonl"
        code = main(["bench", "trace", "--out", str(out),
                     "--history", str(history),
                     "--gate", "timings.binary_write.events_per_s>=1",
                     "--gate", "timings.binary_scan.events_per_s>=1"]
                    + self._SMALL)
        assert code == 0
        assert "gate passed" in capsys.readouterr().out
        lines = history.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["seed"] == 5

    def test_impossible_gate_fails(self, tmp_path, capsys, shared_bench):
        out = tmp_path / "BENCH_trace.json"
        code = main(["bench", "trace", "--out", str(out),
                     "--gate", "timings.binary_write.events_per_s>=1e15"]
                    + self._SMALL)
        assert code == 1
        assert "gate failed" in capsys.readouterr().err
