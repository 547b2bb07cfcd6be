"""Observability: structured events, metrics, profiling — ``repro.obs``.

The measurement substrate the quantitative claims run on:

* :mod:`~repro.obs.stats` — shared mean/percentile helpers (p50/p95/p99)
  plus the streaming accumulator (:class:`~repro.obs.stats.QuantileSketch`)
  single-pass consumers use;
* :mod:`~repro.obs.registry` — labelled Counter/Gauge/Histogram registry;
* :mod:`~repro.obs.events` — JSONL event tracing keyed by simulation time;
* :mod:`~repro.obs.traceio` — the binary columnar trace format (chunked,
  CRC-framed, dictionary-encoded) with streaming writer/reader and the
  unified :func:`~repro.obs.traceio.iter_trace_events` front door;
* :mod:`~repro.obs.profiling` — per-phase wall-clock totals that closing
  spans report into (perf snapshots only, never in deterministic
  artefacts);
* :mod:`~repro.obs.recorder` — the facade instrumented code talks to, with
  the zero-overhead :data:`~repro.obs.recorder.NULL_RECORDER` default;
* :mod:`~repro.obs.spans` — causal request-scoped spans with deterministic
  ids, streaming span-tree reconstruction and critical-path analysis;
* :mod:`~repro.obs.flame` — folded-stack aggregation and flamegraph SVG
  export over span trees;
* :mod:`~repro.obs.report` — trace summarisation behind ``repro report``;
* :mod:`~repro.obs.bench` — the one bench harness behind ``repro bench``:
  stamped ``BENCH_<section>.json`` snapshots (obs, wal, trace, pipeline)
  with alternating-pair timing, identity checks and gates;
* :mod:`~repro.obs.alerts` — the alert record and its severities;
* :mod:`~repro.obs.detectors` — streaming anomaly detectors (convergence
  stall, fake outbreak, collusion ring, whitewashing, starvation) and the
  threshold/windowed alert rules, as one detector list;
* :mod:`~repro.obs.monitor` — the live/offline monitor feeding that list;
* :mod:`~repro.obs.timeline` — per-peer reputation timelines from a trace;
* :mod:`~repro.obs.dashboard` — self-contained HTML dashboard rendering;
* :mod:`~repro.obs.diff` — differential analysis of two trace summaries.

Design rule: with the default ``NULL_RECORDER`` every instrumented path is
behaviourally identical to the uninstrumented seed code; with a live
:class:`~repro.obs.recorder.Recorder`, two runs at the same seed export
byte-identical traces and metrics (simulation time only, no wall clock).
Trace consumers stream — they accept lazy readers and never materialise
the full event list.
"""

from .alerts import Alert, Severity
from .dashboard import render_dashboard
from .detectors import (Detector, ThresholdRule, WindowedCountRule,
                        default_detectors)
from .diff import diff_summaries
from .events import EventTrace, read_events
from .flame import FoldedStacks, folded_from_trees, render_flamegraph
from .monitor import Monitor, MonitorResult, monitor_events
from .profiling import PhaseStats, Profiler
from .recorder import NULL_RECORDER, NullRecorder, Recorder
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .spans import (NULL_SPAN, NullSpan, OperationStats, Span, SpanAnalysis,
                    SpanAnalyzer, SpanContext, SpanNode, SpanTreeBuilder,
                    critical_path, derive_span_id, derive_trace_id,
                    span_node_from_event)
from .report import (TraceSummarizer, TraceSummary, summarize_trace,
                     summary_to_dict)
from .stats import (DEFAULT_QUANTILES, QuantileSketch, mean, percentile,
                    percentiles, summarize)
from .timeline import (FakeFractionAccumulator, PeerSample, PeerTimeline,
                       TimelineBuilder, build_timelines, class_mean_series)
from .traceio import (JsonlTraceWriter, TraceFormatError, TraceReader,
                      TraceWriter, is_binary_trace, iter_trace_events,
                      open_trace_sink, trace_info)

__all__ = [
    "Alert",
    "Severity",
    "render_dashboard",
    "Detector",
    "ThresholdRule",
    "WindowedCountRule",
    "default_detectors",
    "diff_summaries",
    "EventTrace",
    "read_events",
    "JsonlTraceWriter",
    "TraceFormatError",
    "TraceReader",
    "TraceWriter",
    "is_binary_trace",
    "iter_trace_events",
    "open_trace_sink",
    "trace_info",
    "Monitor",
    "MonitorResult",
    "monitor_events",
    "PhaseStats",
    "Profiler",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "NULL_SPAN",
    "NullSpan",
    "OperationStats",
    "Span",
    "SpanAnalysis",
    "SpanAnalyzer",
    "SpanContext",
    "SpanNode",
    "SpanTreeBuilder",
    "critical_path",
    "derive_span_id",
    "derive_trace_id",
    "span_node_from_event",
    "FoldedStacks",
    "folded_from_trees",
    "render_flamegraph",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceSummarizer",
    "TraceSummary",
    "summarize_trace",
    "summary_to_dict",
    "PeerSample",
    "PeerTimeline",
    "TimelineBuilder",
    "FakeFractionAccumulator",
    "build_timelines",
    "class_mean_series",
    "DEFAULT_QUANTILES",
    "QuantileSketch",
    "mean",
    "percentile",
    "percentiles",
    "summarize",
]
