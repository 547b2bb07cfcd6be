"""Command-line interface: ``python -m repro <command>``.

Fifteen commands cover the workflows a downstream user actually runs:

* ``gen-trace``   — generate a synthetic Maze-like download trace to a file;
* ``trace-stats`` — summarise a trace file (Zipf fit, Gini, fake fraction);
* ``coverage``    — regenerate the Figure 1 sweep for chosen k values;
* ``simulate``    — run the file-sharing simulator under any mechanism and
  print the per-class outcome table;
* ``chaos``       — sweep message-loss × churn over the DHT evaluation
  overlay and report availability, hop inflation and ranking stability
  (the Section 4.3 resilience claim under an actually hostile network);
* ``report``      — summarise an observability trace: per-class wait
  percentiles, multitrust convergence residuals, DHT hop/retry
  distributions (``--json`` for the machine-readable schema, ``--profile``
  to fold a ``--profile-out`` capture into it);
* ``monitor``     — replay a trace through the streaming anomaly detectors
  and alert rules; verifies any recorded live alerts are reproduced;
* ``dashboard``   — render a trace into one self-contained HTML file;
* ``diff-trace``  — compare two traces and flag outcome regressions;
* ``trace``       — work with trace files directly: ``inspect`` (header /
  chunk / kind bookkeeping, corruption-tolerant), ``convert`` (binary <->
  JSONL, canonical bytes), ``query`` (kind/time filters + column
  projection as JSONL; ``--since``/``--until`` skip whole binary chunks
  via per-chunk time bounds) and ``spans`` (reconstruct causal span
  trees: per-operation duration percentiles and exemplar critical paths);
* ``flame``       — render a span-bearing trace as a self-contained
  flamegraph SVG (folded stacks over simulated busy time; ``--folded``
  also writes collapsed-stack lines);
* ``bench``       — run one perf section (``obs``, ``wal``, ``trace`` or
  ``pipeline``) and write a stamped ``BENCH_<section>.json`` snapshot:
  every ratio is the median of alternating A/B pairs with its IQR, any
  false identity check exits 1, and each repeatable ``--gate PATH<=X`` /
  ``--gate PATH>=X`` bounds one number in the snapshot (``--history``
  appends to a JSONL trajectory);
* ``recover``     — rebuild trust state from a durability directory
  (latest good snapshot + WAL-tail replay); ``--repair`` truncates a torn
  tail, ``--out`` writes the recovered state as a v4 JSON document;
* ``wal-inspect`` — decode a write-ahead log: record counts by kind,
  valid-prefix length (the one ``recover`` replays), truncation reason
  (``--records`` lists frames);
* ``lint``        — project-aware static analysis: determinism,
  stochastic-matrix and weight-simplex invariants (``--format json`` for
  the machine-readable schema, ``--fail-on`` for severity gating,
  ``--list-rules`` for the catalogue).

``simulate`` and ``chaos`` accept ``--trace-out PATH`` (``.bin``/``.trc``
selects the binary columnar format, anything else canonical JSONL; either
way events *stream* to disk instead of buffering the run; without it an
observed run keeps only event counts),
``--metrics-out metrics.json``, ``--alerts-out alerts.jsonl`` (which also
attaches the live monitor, so alerts interleave into the trace) and
``--profile-out profile.json`` (wall-clock phase timings — the one
artefact that is *not* deterministic).  ``--spans`` additionally records
causal request spans into the trace (``--span-sample N`` head-samples,
keeping every Nth trace); span ids derive from the seed and simulation
time, so span-bearing traces stay byte-identical across runs.  Trace
artefacts are keyed by simulation time only, so two runs at the same seed
produce byte-identical files; every trace consumer accepts JSONL and
binary interchangeably (the format is sniffed from the first bytes, not
the extension).

All commands are seeded and print fixed-width tables to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .analysis import render_table
from .baselines import ALL_MECHANISMS, MultiDimensionalMechanism
from .core import MultiDimensionalReputationSystem, ReputationConfig
from .core.durability import (WAL_FILENAME, DurabilityManager,
                              SimulatedCrash, read_wal, recover, replay_wal)
from .core.matrix_backend import BACKEND_SPECS
from .core.persistence import save_system
from .lint import (all_rules, lint_paths, result_to_dict, rules_by_id,
                   should_fail)
from .obs import (NULL_RECORDER, FoldedStacks, Monitor, Recorder,
                  SpanAnalyzer, SpanTreeBuilder, diff_summaries,
                  monitor_events, render_dashboard, render_flamegraph,
                  summarize_trace, summary_to_dict)
from .obs.bench import (SECTIONS, append_history, parse_gate, records,
                        resolve, write_snapshot)
from .obs.traceio import (DEFAULT_CHUNK_EVENTS, canonical_line,
                          iter_trace_events, open_trace_sink, trace_info)
from .simulator import (SCENARIOS, FileSharingSimulation, ScenarioSpec,
                        SimulationConfig, get_scenario, run_chaos_sweep)
from .traces import (CoverageReplayer, MazeTraceGenerator, TraceParameters,
                     compute_statistics, read_csv, read_jsonl, write_csv,
                     write_jsonl)

__all__ = ["main", "build_parser"]

_DAY = 24 * 3600.0


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="stream a structured event trace here "
                             "(.bin/.trc = binary columnar, otherwise "
                             "canonical JSONL)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write a metrics-registry JSON snapshot here")
    parser.add_argument("--alerts-out", default=None, metavar="PATH",
                        help="attach the live monitor and write its alert "
                             "stream (JSONL) here; alerts also interleave "
                             "into --trace-out")
    parser.add_argument("--profile-out", default=None, metavar="PATH",
                        help="write the wall-clock profiler snapshot "
                             "(JSON) here; feed it to 'repro report "
                             "--profile'")
    parser.add_argument("--spans", action="store_true",
                        help="record causal request spans into the trace "
                             "(deterministic ids; analyse with 'repro "
                             "trace spans' / 'repro flame')")
    parser.add_argument("--span-sample", type=int, default=None,
                        metavar="N",
                        help="head-sample spans: keep every Nth trace "
                             "(implies --spans; 1 = keep all)")


def _make_recorder(args: argparse.Namespace):
    """A live recorder (plus monitor) when observability was requested.

    Returns ``(recorder, monitor_or_None)``; the monitor is attached only
    when ``--alerts-out`` asked for live alerting.  A ``--trace-out`` path
    becomes the recorder's *streaming* trace sink (binary for
    ``.bin``/``.trc``, canonical JSONL otherwise); without one, events
    reach only the live monitor and the kind counts.
    """
    span_sample = getattr(args, "span_sample", None)
    if span_sample is not None and span_sample < 1:
        print(f"--span-sample must be >= 1, got {span_sample}",
              file=sys.stderr)
        raise SystemExit(2)
    if span_sample is None and getattr(args, "spans", False):
        span_sample = 1
    if (args.trace_out is None and args.metrics_out is None
            and args.alerts_out is None and args.profile_out is None
            and span_sample is None):
        return NULL_RECORDER, None
    sink = (open_trace_sink(args.trace_out)
            if args.trace_out is not None else None)
    recorder = Recorder(trace_sink=sink,
                        span_seed=getattr(args, "seed", 0),
                        span_sample=span_sample or 0)
    monitor = None
    if args.alerts_out is not None:
        monitor = Monitor().attach(recorder)
    return recorder, monitor


def _write_alerts(path: str, alerts) -> None:
    """One canonical JSON line per alert — deterministic, like the trace."""
    with open(path, "w", encoding="utf-8") as handle:
        for alert in alerts:
            handle.write(canonical_line(
                {"t": alert.t, **alert.to_fields()}) + "\n")


def _write_observability(recorder, args: argparse.Namespace,
                         monitor=None) -> None:
    if not recorder.enabled:
        return
    if monitor is not None:
        # Flush end-of-stream detector state so the final alerts land in
        # the trace before the sink is closed.
        monitor.finish()
    if args.trace_out is not None:
        sink = recorder.trace_sink
        sink.close()
        print(f"wrote {sink.events_written} events to {args.trace_out}")
    if args.metrics_out is not None:
        recorder.write_metrics(args.metrics_out)
        print(f"wrote {len(recorder.registry)} metrics to "
              f"{args.metrics_out}")
    if monitor is not None and args.alerts_out is not None:
        _write_alerts(args.alerts_out, monitor.alerts)
        print(f"wrote {len(monitor.alerts)} alerts to {args.alerts_out}")
    if args.profile_out is not None:
        with open(args.profile_out, "w", encoding="utf-8") as handle:
            json.dump(recorder.profiler.snapshot(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(recorder.profiler)} profiled phases to "
              f"{args.profile_out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-dimensional P2P reputation system (ICDCS 2007 "
                    "reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen-trace",
                              help="generate a synthetic Maze-like trace")
    gen.add_argument("output", help="output path (.jsonl or .csv)")
    gen.add_argument("--users", type=int, default=500)
    gen.add_argument("--files", type=int, default=600)
    gen.add_argument("--actions", type=int, default=5000)
    gen.add_argument("--days", type=float, default=30.0)
    gen.add_argument("--library", type=int, default=20,
                     help="pre-existing files per user")
    gen.add_argument("--fake-ratio", type=float, default=0.2)
    gen.add_argument("--seed", type=int, default=7)

    stats = commands.add_parser("trace-stats",
                                help="summarise a trace file")
    stats.add_argument("trace", help="trace path (.jsonl or .csv)")

    coverage = commands.add_parser(
        "coverage", help="Figure 1: request coverage vs evaluation coverage")
    coverage.add_argument("--users", type=int, default=500)
    coverage.add_argument("--files", type=int, default=600)
    coverage.add_argument("--actions", type=int, default=5000)
    coverage.add_argument("--days", type=float, default=30.0)
    coverage.add_argument("--library", type=int, default=20)
    coverage.add_argument("--seed", type=int, default=7)
    coverage.add_argument("--k", type=float, nargs="+",
                          default=[0.05, 0.2, 1.0],
                          help="evaluation-coverage levels (fractions)")

    simulate = commands.add_parser(
        "simulate", help="run the file-sharing simulator")
    simulate.add_argument("--mechanism", choices=sorted(ALL_MECHANISMS),
                          default="multidimensional")
    simulate.add_argument("--scenario", choices=sorted(SCENARIOS),
                          default=None,
                          help="use a named preset scenario (overrides the "
                               "population/catalog flags)")
    simulate.add_argument("--honest", type=int, default=30)
    simulate.add_argument("--free-riders", type=int, default=5)
    simulate.add_argument("--polluters", type=int, default=5)
    simulate.add_argument("--colluders", type=int, default=0)
    simulate.add_argument("--catalog", type=int, default=120,
                          help="number of files")
    simulate.add_argument("--fake-ratio", type=float, default=0.25)
    simulate.add_argument("--days", type=float, default=2.0)
    simulate.add_argument("--request-rate", type=float, default=0.02)
    simulate.add_argument("--seed", type=int, default=42)
    simulate.add_argument("--no-filtering", action="store_true",
                          help="disable Eq. 9 pre-download filtering")
    simulate.add_argument("--no-differentiation", action="store_true",
                          help="disable Section 3.4 service differentiation")
    simulate.add_argument("--multitrust-steps", type=int, default=None,
                          help="the n in RM = TM^n (Eq. 8); n >= 2 emits "
                               "per-iteration convergence residuals into "
                               "the trace (multidimensional only)")
    simulate.add_argument("--matmul-backend",
                          choices=BACKEND_SPECS,
                          default=None,
                          help="matrix-product backend for RM = TM^n: "
                               "dense numpy, compressed-sparse-row ('sparse' "
                               "is an older name for csr), or auto-select "
                               "by density x size (multidimensional only)")
    simulate.add_argument("--wal-out", default=None, metavar="DIR",
                          help="journal every trust-state mutation to a "
                               "write-ahead log + snapshots in this "
                               "directory (multidimensional only); "
                               "recover later with 'repro recover DIR'")
    simulate.add_argument("--snapshot-every", type=int, default=500,
                          metavar="N",
                          help="cut a snapshot generation after N journal "
                               "records, checked at each maintenance tick "
                               "(0 = baseline generation only)")
    simulate.add_argument("--wal-fsync", choices=("none", "batch", "always"),
                          default="batch",
                          help="WAL durability policy: never fsync, fsync "
                               "per maintenance tick, or fsync per record")
    simulate.add_argument("--crash-at", type=float, default=None,
                          metavar="SECONDS",
                          help="inject a simulated process death at this "
                               "simulation time (exit code 3; the WAL "
                               "directory is left exactly as a kill "
                               "would leave it)")
    _add_observability_flags(simulate)

    chaos = commands.add_parser(
        "chaos", help="fault-injection sweep: message loss x churn over "
                      "the DHT evaluation overlay")
    chaos.add_argument("--loss", type=float, nargs="+",
                       default=[0.0, 0.05, 0.1],
                       help="message-loss probabilities to sweep")
    chaos.add_argument("--churn", type=float, nargs="+",
                       default=[0.0, 0.3],
                       help="per-round churn probabilities to sweep")
    chaos.add_argument("--peers", type=int, default=24)
    chaos.add_argument("--files", type=int, default=40)
    chaos.add_argument("--rounds", type=int, default=30)
    chaos.add_argument("--replication", type=int, default=3)
    chaos.add_argument("--seed", type=int, default=11)
    _add_observability_flags(chaos)

    report = commands.add_parser(
        "report", help="summarise an observability trace (JSONL or binary)")
    report.add_argument("trace", help="trace written by --trace-out")
    report.add_argument("--json", action="store_true",
                        help="emit the machine-readable summary schema "
                             "instead of tables")
    report.add_argument("--profile", default=None, metavar="PATH",
                        help="fold a --profile-out capture (wall-clock "
                             "phase percentiles) into the report")

    monitor = commands.add_parser(
        "monitor", help="replay a trace through the streaming anomaly "
                        "detectors and alert rules")
    monitor.add_argument("trace", help="trace written by --trace-out")
    monitor.add_argument("--alerts-out", default=None, metavar="PATH",
                         help="also write the alert stream (JSONL) here")

    dashboard = commands.add_parser(
        "dashboard", help="render a trace into one self-contained HTML "
                          "dashboard (no network dependencies)")
    dashboard.add_argument("trace", help="trace written by --trace-out")
    dashboard.add_argument("-o", "--out", default="dash.html",
                           help="HTML output path")

    diff = commands.add_parser(
        "diff-trace", help="compare two traces and flag outcome "
                           "regressions (B relative to A)")
    diff.add_argument("trace_a", help="baseline trace (A)")
    diff.add_argument("trace_b", help="candidate trace (B)")
    diff.add_argument("--label-a", default="A")
    diff.add_argument("--label-b", default="B")
    diff.add_argument("--json", action="store_true",
                      help="emit the full diff document as JSON")
    diff.add_argument("--fail-on-regression", action="store_true",
                      help="exit 1 when any regression is flagged")

    trace = commands.add_parser(
        "trace", help="inspect, convert or query trace files "
                      "(JSONL or binary columnar)")
    trace_commands = trace.add_subparsers(dest="trace_command",
                                          required=True)

    trace_inspect = trace_commands.add_parser(
        "inspect", help="header, chunk and event-kind bookkeeping; "
                        "reports the longest valid prefix of a corrupt "
                        "file instead of failing")
    trace_inspect.add_argument("trace", help="trace path")
    trace_inspect.add_argument("--json", action="store_true",
                               help="emit the inspection as JSON")

    trace_convert = trace_commands.add_parser(
        "convert", help="convert between binary and canonical JSONL, or "
                        "re-chunk a binary trace (binary -> JSONL is "
                        "byte-identical to the direct JSONL export of the "
                        "same run)")
    trace_convert.add_argument("source", help="input trace (format "
                                              "sniffed from its bytes)")
    trace_convert.add_argument("dest", help="output path (.bin/.trc = "
                                            "binary, otherwise JSONL)")
    trace_convert.add_argument("--chunk-events", type=int,
                               default=DEFAULT_CHUNK_EVENTS,
                               help="events per chunk when writing binary")

    trace_query = trace_commands.add_parser(
        "query", help="filter a trace by event kind / time range and "
                      "project columns; emits canonical JSONL on stdout")
    trace_query.add_argument("trace", help="trace path")
    trace_query.add_argument("--kind", action="append", default=None,
                             metavar="KIND",
                             help="keep only this event kind (repeatable)")
    trace_query.add_argument("--since", type=float, default=None,
                             metavar="T",
                             help="keep events with t >= T (simulation "
                                  "seconds)")
    trace_query.add_argument("--until", type=float, default=None,
                             metavar="T",
                             help="keep events with t < T")
    trace_query.add_argument("--columns", default=None, metavar="NAMES",
                             help="comma-separated fields to keep "
                                  "('event' is always kept)")
    trace_query.add_argument("--limit", type=int, default=None, metavar="N",
                             help="stop after N matching events")

    trace_spans = trace_commands.add_parser(
        "spans", help="reconstruct causal span trees: per-operation "
                      "duration percentiles (simulated seconds) and an "
                      "exemplar critical path per root operation")
    trace_spans.add_argument("trace", help="trace recorded with --spans")
    trace_spans.add_argument("--op", action="append", default=None,
                             metavar="NAME",
                             help="restrict output to this operation name "
                                  "(repeatable)")
    trace_spans.add_argument("--json", action="store_true",
                             help="emit the analysis as JSON")

    flame = commands.add_parser(
        "flame", help="render a span-bearing trace as a self-contained "
                      "flamegraph SVG (simulated busy time)")
    flame.add_argument("trace", help="trace recorded with --spans")
    flame.add_argument("-o", "--out", default="flame.svg",
                       help="SVG output path")
    flame.add_argument("--folded", default=None, metavar="PATH",
                       help="also write collapsed-stack lines "
                            "('a;b;c <microseconds>') here")
    flame.add_argument("--width", type=int, default=1200,
                       help="SVG width in pixels")
    flame.add_argument("--title", default="repro span flamegraph",
                       help="SVG title text")

    bench = commands.add_parser(
        "bench", help="run one perf section and write a stamped "
                      "BENCH_<section>.json snapshot")
    bench.add_argument("section", choices=tuple(SECTIONS),
                       help="obs: observability overhead; wal: journal "
                            "cost; trace: binary vs JSONL throughput; "
                            "pipeline: refresh and matmul backends")
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument("--out", default=None,
                       help="snapshot output path "
                            "(default BENCH_<section>.json)")
    bench.add_argument("--history", default=None, metavar="PATH",
                       help="append the snapshot as one JSONL line to this "
                            "trajectory file")
    bench.add_argument("--gate", action="append", default=[],
                       type=_gate_arg, metavar="PATH<=X|PATH>=X",
                       help="exit 1 unless the number at this dotted "
                            "snapshot path (e.g. ratios.span_overhead.median)"
                            " meets the bound; repeatable")
    bench.add_argument("--sizes", type=int, nargs="+", default=None,
                       metavar="PEERS",
                       help="pipeline: population sizes for the refresh "
                            "tiers (default 100 500 1000)")
    bench.add_argument("--events", type=int, default=None,
                       help="pipeline: single-event refreshes timed per "
                            "refresh tier (default 20)")
    bench.add_argument("--scale-sizes", type=int, nargs="+", default=None,
                       metavar="PEERS",
                       help="pipeline: scaling tiers, each replaying one "
                            "event stream that must equal a full rebuild")

    recover_parser = commands.add_parser(
        "recover", help="rebuild trust state from a durability directory "
                        "(latest good snapshot + WAL-tail replay)")
    recover_parser.add_argument("directory",
                                help="directory written by simulate "
                                     "--wal-out")
    recover_parser.add_argument("--out", default=None, metavar="PATH",
                                help="write the recovered state as a v4 "
                                     "JSON document here")
    recover_parser.add_argument("--repair", action="store_true",
                                help="truncate a torn WAL tail back to the "
                                     "last valid record")
    recover_parser.add_argument("--json", action="store_true",
                                help="emit a machine-readable recovery "
                                     "summary instead of text")

    wal_inspect = commands.add_parser(
        "wal-inspect", help="decode a write-ahead log and report its "
                            "valid prefix")
    wal_inspect.add_argument("path",
                             help="WAL file, or a durability directory "
                                  f"containing {WAL_FILENAME}")
    wal_inspect.add_argument("--records", action="store_true",
                             help="list every decoded record")
    wal_inspect.add_argument("--json", action="store_true",
                             help="emit the scan as JSON")

    lint = commands.add_parser(
        "lint", help="project-aware static analysis: determinism, "
                     "stochastic-matrix and weight-simplex invariants")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to check (default: src)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="diagnostic output format")
    lint.add_argument("--fail-on", choices=("error", "warning", "note",
                                            "never"), default="error",
                      help="exit 1 when a diagnostic at or above this "
                           "severity is found (default: error)")
    lint.add_argument("--rules", default=None, metavar="IDS",
                      help="comma-separated rule ids to run "
                           "(default: all registered rules)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    return parser


def _read_trace(path: str):
    if path.endswith(".csv"):
        return read_csv(path)
    return read_jsonl(path)


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    parameters = TraceParameters(
        num_users=args.users, num_files=args.files,
        num_actions=args.actions, trace_days=args.days,
        library_size=args.library, fake_ratio=args.fake_ratio,
        seed=args.seed)
    generated = MazeTraceGenerator(parameters).generate()
    if args.output.endswith(".csv"):
        write_csv(generated.trace, args.output)
    else:
        write_jsonl(generated.trace, args.output)
    print(f"wrote {len(generated.trace)} download records to {args.output}")
    return 0


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    try:
        trace = _read_trace(args.trace)
    except (OSError, ValueError) as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
        return 1
    if not len(trace):
        print("trace is empty", file=sys.stderr)
        return 1
    statistics = compute_statistics(trace)
    rows = [
        ["records", statistics.num_records],
        ["users", statistics.num_users],
        ["files", statistics.num_files],
        ["duration (days)", round(statistics.duration_days, 1)],
        ["popularity Zipf exponent",
         round(statistics.popularity_zipf_exponent, 3)],
        ["downloader activity Gini",
         round(statistics.downloader_activity_gini, 3)],
        ["uploader activity Gini",
         round(statistics.uploader_activity_gini, 3)],
        ["fake download fraction",
         round(statistics.fake_download_fraction, 3)],
        ["median file distinct days", statistics.median_file_distinct_days],
    ]
    print(render_table(["statistic", "value"], rows,
                       title=f"Trace statistics: {args.trace}"))
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    for k in args.k:
        if not 0.0 <= k <= 1.0:
            print(f"coverage level {k} outside [0, 1]", file=sys.stderr)
            return 1
    parameters = TraceParameters(
        num_users=args.users, num_files=args.files,
        num_actions=args.actions, trace_days=args.days,
        library_size=args.library, seed=args.seed)
    generated = MazeTraceGenerator(parameters).generate()
    rows = []
    for k in args.k:
        series = CoverageReplayer(generated, k, seed=args.seed + 1).run()
        rows.append([f"{k:.0%}", series.overall, series.steady_state()])
    print(render_table(
        ["evaluation coverage", "request coverage", "steady-state"], rows,
        title=(f"Figure 1 sweep: {len(generated.trace)} downloads, "
               f"{args.users} users, {args.days:.0f} days")))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        preset = get_scenario(args.scenario, seed=args.seed)
        config = SimulationConfig(
            scenario=preset.scenario,
            duration_seconds=preset.duration_seconds,
            num_files=preset.num_files,
            fake_ratio=preset.fake_ratio,
            request_rate=preset.request_rate,
            seed=preset.seed,
            churn=preset.churn,
            use_file_filtering=not args.no_filtering,
            use_service_differentiation=not args.no_differentiation,
        )
        duration = preset.duration_seconds
    else:
        duration = args.days * _DAY
        config = SimulationConfig(
            scenario=ScenarioSpec(honest=args.honest,
                                  free_riders=args.free_riders,
                                  polluters=args.polluters,
                                  colluders=args.colluders),
            duration_seconds=duration,
            num_files=args.catalog,
            fake_ratio=args.fake_ratio,
            request_rate=args.request_rate,
            seed=args.seed,
            use_file_filtering=not args.no_filtering,
            use_service_differentiation=not args.no_differentiation,
        )
    if args.mechanism == "multidimensional":
        reputation_config = {"retention_saturation_seconds": duration / 3}
        if args.multitrust_steps is not None:
            reputation_config["multitrust_steps"] = args.multitrust_steps
        if args.matmul_backend is not None:
            reputation_config["matmul_backend"] = args.matmul_backend
        mechanism = MultiDimensionalMechanism(
            ReputationConfig(**reputation_config))
    else:
        mechanism = ALL_MECHANISMS[args.mechanism]()
    recorder, live_monitor = _make_recorder(args)

    durability = None
    if args.wal_out is not None:
        if args.mechanism != "multidimensional":
            print("--wal-out journals the multidimensional trust state; "
                  f"mechanism {args.mechanism!r} has none", file=sys.stderr)
            return 2
        durability = DurabilityManager(
            mechanism.system, args.wal_out, fsync=args.wal_fsync,
            snapshot_every=args.snapshot_every, recorder=recorder)

    simulation = FileSharingSimulation(config, mechanism,
                                       recorder=recorder,
                                       durability=durability)
    if args.crash_at is not None:
        simulation.engine.schedule_crash(args.crash_at)
    try:
        metrics = simulation.run()
    except SimulatedCrash as crash:
        # Process-death semantics: nothing is flushed; the durability
        # directory holds exactly what had reached the OS, and the WAL
        # bytes still buffered here are dropped rather than written when
        # the dead run is garbage-collected.
        if durability is not None:
            durability.abandon()
        print(f"simulated crash: {crash}", file=sys.stderr)
        return 3
    if durability is not None:
        durability.close(final_snapshot=True)
        print(f"journalled {durability.last_seq} records to "
              f"{args.wal_out} (fsync={args.wal_fsync})")

    rows = []
    for label in metrics.class_labels():
        stats = metrics.stats_for(label)
        rows.append([label, stats.total_downloads,
                     stats.fake_fraction, stats.fakes_blocked,
                     stats.mean_wait, stats.mean_bandwidth / 1024.0])
    scenario_note = (f"scenario={args.scenario}, "
                     if args.scenario is not None else "")
    print(render_table(
        ["class", "downloads", "fake fraction", "fakes blocked",
         "mean wait (s)", "bandwidth (KB/s)"], rows,
        title=(f"Simulation: {scenario_note}mechanism={args.mechanism}, "
               f"{duration / _DAY:.1f} days, seed={args.seed}")))
    print(f"\noverall fake fraction: {metrics.overall_fake_fraction:.3f}")
    print(f"requests: {metrics.total_requests}, blind judgements: "
          f"{metrics.blind_judgements}")
    print(f"outstanding fake copies: {metrics.outstanding_fake_copies}")
    _write_observability(recorder, args, live_monitor)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    for rate in args.loss:
        if not 0.0 <= rate < 1.0:
            print(f"loss rate {rate} outside [0, 1)", file=sys.stderr)
            return 1
    for rate in args.churn:
        if not 0.0 <= rate <= 1.0:
            print(f"churn rate {rate} outside [0, 1]", file=sys.stderr)
            return 1
    recorder, live_monitor = _make_recorder(args)
    results = run_chaos_sweep(
        list(args.loss), list(args.churn), peers=args.peers,
        files=args.files, rounds=args.rounds, seed=args.seed,
        replication=args.replication, recorder=recorder)
    rows = []
    for result in results:
        rows.append([
            f"{result.loss_rate:.0%}",
            f"{result.churn_rate:.0%}",
            round(result.availability, 3),
            result.retrievals_incomplete,
            round(result.mean_hops, 2),
            round(result.hop_ratio_vs_baseline, 2),
            round(result.kendall_tau_vs_baseline, 3),
            result.drops,
            result.retries,
            result.repairs,
        ])
    print(render_table(
        ["loss", "churn", "availability", "incomplete", "mean hops",
         "hop ratio", "kendall tau", "drops", "retries", "repairs"], rows,
        title=(f"Chaos sweep: {args.peers} peers, {args.files} files, "
               f"{args.rounds} rounds, r={args.replication}, "
               f"seed={args.seed}")))
    worst = min(result.availability for result in results)
    print(f"\nworst-cell availability: {worst:.3f}")
    _write_observability(recorder, args, live_monitor)
    return 0


def _load_profile(path: str):
    """A ``--profile-out`` capture as a dict, or None on error."""
    try:
        with open(path, encoding="utf-8") as handle:
            profile = json.load(handle)
    except (OSError, ValueError, RecursionError) as error:
        print(f"cannot read profile {path}: {error}", file=sys.stderr)
        return None
    if not isinstance(profile, dict):
        print(f"profile {path} is not a JSON object", file=sys.stderr)
        return None
    return profile


def _cmd_report(args: argparse.Namespace) -> int:
    profile = None
    if args.profile is not None:
        profile = _load_profile(args.profile)
        if profile is None:
            return 1
    try:
        # One streaming pass; JSONL or binary, sniffed from the bytes.
        summary = summarize_trace(iter_trace_events(args.trace))
    except (OSError, ValueError) as error:
        print(f"cannot read trace {args.trace}: {error}", file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps(summary_to_dict(summary, profile=profile),
                         indent=2, sort_keys=True))
        return 0

    print(f"trace: {args.trace}")
    print(f"events: {summary.total_events}, simulated span: "
          f"{summary.start_time:.0f}s .. {summary.end_time:.0f}s\n")
    if not summary.total_events:
        print("trace is empty: no events to summarise")
        return 0
    print(render_table(
        ["event", "count"],
        [[kind, count] for kind, count in summary.event_counts.items()],
        title="Event counts"))

    if summary.wait_by_class:
        rows = []
        for cls, wait in summary.wait_by_class.items():
            outcome = summary.outcomes_by_class.get(
                cls, {"downloads": 0, "fakes": 0, "blocked": 0})
            rows.append([cls, outcome["downloads"], outcome["fakes"],
                         outcome["blocked"], round(wait["p50"], 1),
                         round(wait["p95"], 1), round(wait["p99"], 1)])
        print("\n" + render_table(
            ["class", "downloads", "fakes", "blocked", "wait p50 (s)",
             "wait p95 (s)", "wait p99 (s)"], rows,
            title="Per-class outcomes and wait percentiles"))

    if summary.multitrust_residuals:
        rows = [[iteration, residual["count"],
                 f"{residual['mean']:.2e}", f"{residual['max']:.2e}"]
                for iteration, residual
                in summary.multitrust_residuals.items()]
        print("\n" + render_table(
            ["iteration", "computations", "mean residual", "max residual"],
            rows, title="Multitrust convergence (L-inf residual per "
                        "power-iteration step)"))

    if summary.dht_hops.get("count"):
        rows = [["hops", summary.dht_hops["count"],
                 round(summary.dht_hops["mean"], 2),
                 summary.dht_hops["p50"], summary.dht_hops["p95"],
                 summary.dht_hops["p99"]],
                ["retries", summary.dht_retries["count"],
                 round(summary.dht_retries["mean"], 2),
                 summary.dht_retries["p50"], summary.dht_retries["p95"],
                 summary.dht_retries["p99"]]]
        print("\n" + render_table(
            ["metric", "lookups", "mean", "p50", "p95", "p99"], rows,
            title="DHT lookup cost"))
        print(f"\nfailed lookups: {summary.dht_failed_lookups}")

    if summary.fake_removal_latency.get("count"):
        latency = summary.fake_removal_latency
        print(f"fake-removal latency: n={latency['count']}, "
              f"mean={latency['mean']:.0f}s, p95={latency['p95']:.0f}s")

    if profile:
        rows = []
        for name, stats in sorted(profile.items()):
            if not isinstance(stats, dict):
                continue
            rows.append([
                name, stats.get("calls", 0),
                f"{float(stats.get('total_seconds', 0.0)) * 1e3:.1f}",
                f"{float(stats.get('p50_seconds', 0.0)) * 1e3:.2f}",
                f"{float(stats.get('p95_seconds', 0.0)) * 1e3:.2f}",
                f"{float(stats.get('p99_seconds', 0.0)) * 1e3:.2f}"])
        print("\n" + render_table(
            ["phase", "calls", "total (ms)", "p50 (ms)", "p95 (ms)",
             "p99 (ms)"], rows,
            title=f"Profiled sections (wall clock): {args.profile}"))

    if summary.unrecognized:
        kinds = ", ".join(f"{kind} ({count})" for kind, count
                          in summary.unrecognized.items())
        print(f"unrecognized event kinds: {kinds}")
    if summary.alert_counts:
        counts = ", ".join(f"{count} {severity}" for severity, count
                           in summary.alert_counts.items())
        print(f"alerts in trace: {counts}")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    try:
        result = monitor_events(iter_trace_events(args.trace))
    except (OSError, ValueError) as error:
        print(f"cannot read trace {args.trace}: {error}", file=sys.stderr)
        return 1

    print(f"trace: {args.trace} ({result.events_seen} events)")
    if result.alerts:
        rows = [[f"{alert.t:.0f}", alert.severity, alert.detector,
                 alert.message] for alert in result.alerts]
        print(render_table(["t (s)", "severity", "detector", "message"],
                           rows, title="Alerts"))
        counts = ", ".join(f"{count} {severity}" for severity, count
                           in result.counts_by_severity().items())
        print(f"\n{len(result.alerts)} alerts: {counts}")
    else:
        print("no alerts raised")

    if args.alerts_out is not None:
        _write_alerts(args.alerts_out, result.alerts)
        print(f"wrote {len(result.alerts)} alerts to {args.alerts_out}")

    if result.recorded_alerts:
        if result.reproduces_recorded:
            print(f"replay check: reproduced all "
                  f"{len(result.recorded_alerts)} recorded alerts")
        else:
            print(f"replay check FAILED: regenerated {len(result.alerts)} "
                  f"alerts, trace carries {len(result.recorded_alerts)}",
                  file=sys.stderr)
            return 1
    return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    try:
        document = render_dashboard(iter_trace_events(args.trace),
                                    title=f"repro dashboard: {args.trace}")
    except (OSError, ValueError) as error:
        print(f"cannot read trace {args.trace}: {error}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(document)
    print(f"wrote {len(document)} bytes of HTML to {args.out}")
    return 0


def _summarize_path(path: str):
    """One streaming summarisation pass over a trace (None on error)."""
    try:
        return summarize_trace(iter_trace_events(path))
    except (OSError, ValueError) as error:
        print(f"cannot read trace {path}: {error}", file=sys.stderr)
        return None


def _cmd_diff_trace(args: argparse.Namespace) -> int:
    summary_a = _summarize_path(args.trace_a)
    summary_b = _summarize_path(args.trace_b)
    if summary_a is None or summary_b is None:
        return 1
    diff = diff_summaries(summary_a, summary_b,
                          label_a=args.label_a, label_b=args.label_b)
    regressions = diff["regressions"]

    if args.json:
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        deltas = diff["deltas"]
        print(f"{args.label_a}: {args.trace_a}")
        print(f"{args.label_b}: {args.trace_b}\n")
        rows = [["total events", deltas["total_events"]],
                ["failed DHT lookups", deltas["dht_failed_lookups"]],
                ["incomplete retrievals",
                 deltas["dht_retrievals_incomplete"]],
                ["mean DHT hops", round(deltas["dht_mean_hops"], 2)]]
        for cls, delta in deltas["fake_fraction_by_class"].items():
            rows.append([f"fake fraction [{cls}]", round(delta, 3)])
        for cls, delta in deltas["wait_p95_by_class"].items():
            rows.append([f"wait p95 [{cls}] (s)", round(delta, 1)])
        for severity, delta in deltas["alert_counts"].items():
            rows.append([f"alerts [{severity}]", delta])
        print(render_table(
            ["metric", f"delta ({args.label_b} - {args.label_a})"], rows,
            title="Trace diff"))
        if regressions:
            print(f"\n{len(regressions)} regressions:")
            for regression in regressions:
                print(f"  - {regression}")
        else:
            print("\nno regressions flagged")

    if regressions and args.fail_on_regression:
        return 1
    return 0


def _cmd_trace_inspect(args: argparse.Namespace) -> int:
    try:
        info = trace_info(args.trace)
    except OSError as error:
        print(f"cannot read trace {args.trace}: {error}", file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0

    rows = [["format", info["format"]]]
    if "version" in info:
        rows.append(["version", info["version"]])
    rows.extend([
        ["file bytes", info["file_bytes"]],
        ["events", info["events"]],
    ])
    if info["format"] == "binary":
        rows.append(["chunks", info["chunks"]])
    rows.append(["time span", f"{info['start_time']:.0f}s .. "
                              f"{info['end_time']:.0f}s"])
    print(render_table(["property", "value"], rows,
                       title=f"Trace: {args.trace}"))
    if info["kinds"]:
        print("\n" + render_table(
            ["event", "count"],
            [[kind, count] for kind, count in info["kinds"].items()],
            title="Event counts"))
    if info["truncated"]:
        print(f"\nTRUNCATED after {info['events']} events: "
              f"{info['error']}")
    return 0


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    if args.chunk_events < 1:
        print(f"--chunk-events must be >= 1, got {args.chunk_events}",
              file=sys.stderr)
        return 2
    try:
        sink = open_trace_sink(args.dest, chunk_events=args.chunk_events)
    except OSError as error:
        print(f"cannot write {args.dest}: {error}", file=sys.stderr)
        return 1
    try:
        with sink:
            for event in iter_trace_events(args.source):
                sink.append(event)
    except (OSError, ValueError) as error:
        print(f"convert failed: {error}", file=sys.stderr)
        return 1
    print(f"wrote {sink.events_written} events to {args.dest}")
    return 0


def _cmd_trace_query(args: argparse.Namespace) -> int:
    kinds = set(args.kind) if args.kind else None
    columns = None
    if args.columns is not None:
        columns = [name.strip() for name in args.columns.split(",")
                   if name.strip()]
    if args.limit is not None and args.limit < 0:
        print(f"--limit must be >= 0, got {args.limit}", file=sys.stderr)
        return 2
    matched = 0
    out = sys.stdout
    try:
        # The time window is pushed down into the reader: binary chunks
        # whose per-chunk [t_min, t_max] misses the window are skipped
        # without decoding any column.
        for event in iter_trace_events(args.trace, since=args.since,
                                       until=args.until):
            if args.limit is not None and matched >= args.limit:
                break
            if kinds is not None and event.get("event") not in kinds:
                continue
            if columns is not None:
                event = {"event": event.get("event", "unknown"),
                         **{name: event[name] for name in columns
                            if name in event}}
            out.write(canonical_line(event) + "\n")
            matched += 1
    except (OSError, ValueError) as error:
        print(f"cannot read trace {args.trace}: {error}", file=sys.stderr)
        return 1
    # Keep stdout pipeable: the bookkeeping goes to stderr.
    print(f"matched {matched} events", file=sys.stderr)
    return 0


_NO_SPANS_MESSAGE = ("contains no span records; record one with "
                     "--spans (or --span-sample N) on simulate/chaos")


def _cmd_trace_spans(args: argparse.Namespace) -> int:
    analyzer = SpanAnalyzer()
    try:
        for event in iter_trace_events(args.trace):
            analyzer.feed(event)
    except (OSError, ValueError) as error:
        print(f"cannot read trace {args.trace}: {error}", file=sys.stderr)
        return 1
    analysis = analyzer.finish()
    selected = set(args.op) if args.op else None

    if args.json:
        document = analysis.to_dict()
        if selected is not None:
            for key in ("operations", "critical_paths"):
                document[key] = {name: value
                                 for name, value in document[key].items()
                                 if name in selected}
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0

    if not analysis.spans:
        print(f"trace {args.trace} {_NO_SPANS_MESSAGE}")
        return 0

    print(f"trace: {args.trace}")
    print(f"spans: {analysis.spans} in {analysis.traces} traces "
          f"({analysis.segments} segments, {analysis.orphans} orphans, "
          f"{analysis.malformed} malformed)\n")

    def _quantile(value) -> str:
        return f"{value:.3f}" if value is not None else "-"

    rows = []
    for name, stats in sorted(analysis.operations.items()):
        if selected is not None and name not in selected:
            continue
        entry = stats.to_dict()
        rows.append([name, entry["count"],
                     f"{entry['total_dur']:.3f}",
                     f"{entry['total_busy']:.3f}",
                     _quantile(entry["p50"]), _quantile(entry["p95"]),
                     _quantile(entry["p99"])])
    print(render_table(
        ["operation", "spans", "total dur (s)", "total busy (s)",
         "p50 (s)", "p95 (s)", "p99 (s)"], rows,
        title="Span operations (simulated seconds)"))

    for name, steps in sorted(analysis.critical_paths.items()):
        if selected is not None and name not in selected:
            continue
        print(f"\ncritical path [{name}] "
              f"({steps[0].dur:.3f}s end to end):")
        for depth, step in enumerate(steps):
            counters = "".join(
                f" {counter}={amount}" for counter, amount
                in sorted(step.counters.items()))
            flag = "" if step.consistent else "  [INCONSISTENT]"
            print(f"  {'  ' * depth}{step.name}: dur {step.dur:.3f}s, "
                  f"busy {step.busy:.3f}s{counters}{flag}")

    if analysis.inconsistent:
        print(f"\nWARNING: {analysis.inconsistent} spans violate "
              "dur == busy + sum(child dur)", file=sys.stderr)
        return 1
    print("\nconsistency: dur == busy + sum(child dur) holds for "
          "every span")
    return 0


_TRACE_COMMANDS = {
    "inspect": _cmd_trace_inspect,
    "convert": _cmd_trace_convert,
    "query": _cmd_trace_query,
    "spans": _cmd_trace_spans,
}


def _cmd_trace(args: argparse.Namespace) -> int:
    return _TRACE_COMMANDS[args.trace_command](args)


def _cmd_flame(args: argparse.Namespace) -> int:
    if args.width < 300:
        print(f"--width must be >= 300, got {args.width}", file=sys.stderr)
        return 2
    builder = SpanTreeBuilder()
    folded = FoldedStacks()
    try:
        for event in iter_trace_events(args.trace):
            root = builder.feed(event)
            if root is not None:
                folded.add_tree(root)
    except (OSError, ValueError) as error:
        print(f"cannot read trace {args.trace}: {error}", file=sys.stderr)
        return 1
    # Orphaned subtrees (parent lost to truncation) still carry real cost.
    for root in builder.finish():
        folded.add_tree(root)
    if not builder.spans_seen:
        print(f"trace {args.trace} {_NO_SPANS_MESSAGE}")
        return 0
    if args.folded is not None:
        with open(args.folded, "w", encoding="utf-8") as handle:
            for line in folded.lines():
                handle.write(line + "\n")
        print(f"wrote {len(folded)} folded stacks to {args.folded}")
    document = render_flamegraph(folded, title=args.title,
                                 width=args.width)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(document)
    print(f"wrote {len(document)} bytes of SVG to {args.out} "
          f"({folded.trees} trees, {len(folded)} stacks, total busy "
          f"{folded.total:.3f}s simulated)")
    return 0


def _gate_arg(text: str):
    try:
        return parse_gate(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _cmd_bench(args: argparse.Namespace) -> int:
    options = {name: value for name, value in (
        ("sizes", args.sizes), ("events", args.events),
        ("scale_sizes", args.scale_sizes)) if value is not None}
    if options and args.section != "pipeline":
        flags = ", ".join("--" + name.replace("_", "-") for name in options)
        print(f"{flags}: pipeline section only", file=sys.stderr)
        return 2
    snapshot = SECTIONS[args.section](seed=args.seed, **options)
    out = args.out or f"BENCH_{args.section}.json"
    write_snapshot(out, snapshot)
    if args.history is not None:
        append_history(args.history, snapshot)
        print(f"appended snapshot to {args.history}")
    print(f"wrote {out} (seed={snapshot['seed']}, "
          f"config={snapshot['config_hash']}, git={snapshot['git_sha']}"
          f"{', dirty' if snapshot['git_dirty'] else ''})")
    timings, ratios = [], []
    for path, record in records(snapshot):
        if "iqr" in record:
            ratios.append([path, f"x{record['median']:.2f}",
                           f"{record['iqr']:.2f}", record["pairs"]])
        else:
            rate = record.get("events_per_s")
            timings.append([path, record["runs"],
                            f"{record['min_seconds'] * 1e3:.2f}",
                            f"{record['median_seconds'] * 1e3:.2f}",
                            "" if rate is None else f"{rate:,.0f}"])
    print(render_table(["timing", "runs", "min (ms)", "median (ms)",
                        "events/s"], timings,
                       title=f"bench {args.section}: timings"))
    print(render_table(["ratio", "median", "IQR", "pairs"], ratios,
                       title=f"bench {args.section}: median per-pair ratios"))

    try:
        values = [(gate, resolve(snapshot, gate.path)) for gate in args.gate]
    except LookupError as error:
        print(f"bad gate: {error}", file=sys.stderr)
        return 2
    code = 0
    for name, ok in snapshot["checks"].items():
        if ok:
            print(f"check passed: {name}")
        else:
            print(f"check failed: {name}", file=sys.stderr)
            code = 1
    for gate, value in values:
        if gate.holds(value):
            print(f"gate passed: {gate} (got {value:.4g})")
        else:
            print(f"gate failed: {gate} (got {value:.4g})", file=sys.stderr)
            code = 1
    return code


def _cmd_recover(args: argparse.Namespace) -> int:
    try:
        result = recover(args.directory, repair=args.repair)
    except (FileNotFoundError, ValueError) as error:
        print(f"recovery failed: {error}", file=sys.stderr)
        return 1

    if args.json:
        document = {
            "directory": args.directory,
            "snapshot": result.snapshot_path.name,
            "snapshot_seq": result.snapshot_seq,
            "replayed_records": result.replayed_records,
            "last_seq": result.last_seq,
            "truncated_tail_bytes": result.truncated_tail_bytes,
            "truncation_reason": result.truncation_reason,
            "repaired": result.repaired,
            "quarantined": [
                {"file": entry.quarantined.name, "reason": entry.reason}
                for entry in result.quarantined],
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        rows = [
            ["snapshot", result.snapshot_path.name],
            ["snapshot seq", result.snapshot_seq],
            ["replayed records", result.replayed_records],
            ["recovered through seq", result.last_seq],
            ["torn tail (bytes)", result.truncated_tail_bytes],
            ["stop reason", result.truncation_reason or "clean end"],
            ["tail repaired", "yes" if result.repaired else "no"],
        ]
        print(render_table(["step", "value"], rows,
                           title=f"Recovery: {args.directory}"))
        for entry in result.quarantined:
            print(f"quarantined {entry.quarantined.name}: {entry.reason}")

    if args.out is not None:
        save_system(result.system, args.out, last_seq=result.last_seq)
        print(f"wrote recovered state to {args.out} "
              f"(seq {result.last_seq})")
    return 0


def _cmd_wal_inspect(args: argparse.Namespace) -> int:
    path = args.path
    if os.path.isdir(path):
        path = os.path.join(path, WAL_FILENAME)
    try:
        scan = read_wal(path)
    except OSError as error:
        print(f"cannot read WAL {path}: {error}", file=sys.stderr)
        return 1
    # Replayed into a scratch system, so the log ends where recover ends it.
    scan, _ = replay_wal(
        MultiDimensionalReputationSystem(auto_refresh=False), scan)

    kinds: dict = {}
    for record in scan.records:
        kinds[record.kind] = kinds.get(record.kind, 0) + 1

    if args.json:
        document = {
            "path": path,
            "records": len(scan.records),
            "last_seq": scan.last_seq,
            "valid_bytes": scan.valid_bytes,
            "file_bytes": scan.file_bytes,
            "truncated": scan.truncated,
            "reason": scan.reason,
            "kinds": dict(sorted(kinds.items())),
        }
        if args.records:
            document["frames"] = [
                {"seq": record.seq, "kind": record.kind,
                 "offset": record.offset, "bytes": record.frame_bytes,
                 "data": record.payload}
                for record in scan.records]
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0

    print(f"WAL: {path}")
    print(f"records: {len(scan.records)} (last seq {scan.last_seq}), "
          f"valid prefix {scan.valid_bytes}/{scan.file_bytes} bytes")
    if scan.truncated:
        print(f"TRUNCATED after byte {scan.valid_bytes}: {scan.reason} "
              f"({scan.tail_bytes} bytes unrecoverable)")
    if kinds:
        print(render_table(
            ["kind", "records"],
            [[kind, count] for kind, count in sorted(kinds.items())],
            title="Records by kind"))
    if args.records:
        for record in scan.records:
            payload = json.dumps(record.payload, sort_keys=True,
                                 separators=(",", ":"))
            print(f"  #{record.seq:>6} @{record.offset:>8} "
                  f"{record.kind:<16} {payload}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        rows = [[rule.rule_id, str(rule.severity), rule.summary]
                for rule in all_rules()]
        print(render_table(["rule", "severity", "summary"], rows,
                           title="repro lint rule catalogue"))
        return 0
    try:
        rules = (rules_by_id(part.strip()
                             for part in args.rules.split(",") if part.strip())
                 if args.rules is not None else None)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    result = lint_paths(args.paths, rules)

    if args.format == "json":
        print(json.dumps(result_to_dict(result), indent=2, sort_keys=True))
    else:
        for diagnostic in result.sorted_diagnostics():
            print(diagnostic.render())
        counts = result.counts()
        summary = ", ".join(f"{count} {severity}"
                            for severity, count in counts.items() if count)
        print(f"checked {result.files_checked} files: "
              f"{summary if summary else 'no findings'}"
              + (f" ({len(result.suppressed)} suppressed)"
                 if result.suppressed else ""))

    fail_on = None if args.fail_on == "never" else args.fail_on
    return 1 if should_fail(result, fail_on) else 0


_COMMANDS = {
    "gen-trace": _cmd_gen_trace,
    "trace-stats": _cmd_trace_stats,
    "coverage": _cmd_coverage,
    "simulate": _cmd_simulate,
    "chaos": _cmd_chaos,
    "report": _cmd_report,
    "monitor": _cmd_monitor,
    "dashboard": _cmd_dashboard,
    "diff-trace": _cmd_diff_trace,
    "trace": _cmd_trace,
    "flame": _cmd_flame,
    "bench": _cmd_bench,
    "recover": _cmd_recover,
    "wal-inspect": _cmd_wal_inspect,
    "lint": _cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
