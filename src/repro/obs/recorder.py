"""The recorder facade instrumented code talks to.

Call sites across core/simulator/DHT hold exactly one object — a recorder —
and never decide themselves whether observability is on:

* :data:`NULL_RECORDER` (the default everywhere) ignores every call.  The
  fault-free, instrumentation-free path therefore stays byte-identical to
  the uninstrumented code; hot paths may additionally guard expensive
  field construction behind ``recorder.enabled``.
* :class:`Recorder` fans each call out to an :class:`~repro.obs.events
  .EventTrace` (structured events keyed by simulation time, handed to the
  recorder's trace sink and its subscribers), a
  :class:`~repro.obs.registry.MetricsRegistry` (counters / gauges /
  histograms) and a :class:`~repro.obs.profiling.Profiler` (wall-clock
  phase totals, kept out of the deterministic artefacts).

Spans (:meth:`Recorder.span`, :meth:`Recorder.request_span`) are the only
timing primitive: a closing span is the profiler's one writer of
wall-clock time.

Simulation time comes from a bound clock (``bind_clock``), so events carry
``engine.now`` without every call site threading ``now`` through.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from typing import Any, Callable, Dict, Optional

from .events import EventTrace
from .profiling import Profiler
from .registry import MetricsRegistry
from .spans import NULL_SPAN, NullSpan, Span, SpanContext, SpanRef

__all__ = ["NullRecorder", "Recorder", "NULL_RECORDER"]

Clock = Callable[[], float]


# Shared no-op scope, so resuming a callback allocates nothing when off.
_NULL_SCOPE = nullcontext()


class NullRecorder:
    """Ignores everything; the zero-overhead default."""

    enabled = False

    def bind_clock(self, clock: Clock) -> None:
        """Set the simulation-time source for subsequent events."""

    def subscribe(self, callback: Callable[[dict], object]) -> None:
        """Register a live event subscriber (monitors attach this way)."""

    def unsubscribe(self, callback: Callable[[dict], object]) -> None:
        """Detach a subscriber; unknown callbacks are ignored."""

    def event(self, kind: str, t: Optional[float] = None, **fields) -> None:
        """Record one structured event (``t`` defaults to the bound clock)."""

    def inc(self, name: str, amount: float = 1, **labels: str) -> None:
        """Bump a counter."""

    def gauge(self, name: str, value: float, **labels: str) -> None:
        """Set a gauge."""

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Add one observation to a histogram."""

    def span(self, name: str, **fields: object) -> NullSpan:
        """Open a span (always profiles; emits a record when the trace is kept)."""
        return NULL_SPAN

    def request_span(self, name: str, **fields: object) -> NullSpan:
        """Open a per-request span; a shared no-op unless span tracing is on."""
        return NULL_SPAN

    def active_span_ref(self) -> Optional[SpanRef]:
        """Causal context to capture when scheduling a callback (None = off)."""
        return None

    def resume_scope(self, ref: SpanRef):
        """Context manager running a callback under a captured causal context."""
        return _NULL_SCOPE

    def now(self) -> float:
        """Current simulation time from the bound clock."""
        return 0.0


#: Shared do-nothing recorder; safe to use as a default argument.
NULL_RECORDER = NullRecorder()


class Recorder(NullRecorder):
    """A live recorder: events + metrics + profiling for one run."""

    enabled = True

    def __init__(self, clock: Optional[Clock] = None,
                 trace_sink: Optional[object] = None,
                 span_seed: int = 0, span_sample: int = 0):
        """``trace_sink`` — where every event record goes: any object with
        ``append(record)``, e.g. :class:`~repro.obs.traceio.TraceWriter`,
        :class:`~repro.obs.traceio.JsonlTraceWriter` or a plain ``list``;
        the caller owns closing it.  Without one, the trace keeps only its
        event and kind counts; subscribers still see every record.

        ``span_seed`` / ``span_sample`` configure deterministic span
        tracing: ids derive from the seed, and every ``span_sample``-th
        trace is kept (0 disables span records; spans still profile).
        """
        self.trace = EventTrace(sink=trace_sink)
        self.trace_sink = trace_sink
        self.registry = MetricsRegistry()
        self.profiler = Profiler()
        self.span_context = SpanContext(seed=span_seed, sample=span_sample)
        self._clock: Clock = clock if clock is not None else (lambda: 0.0)
        self._subscribers: list = []

    def bind_clock(self, clock: Clock) -> None:
        self._clock = clock

    def subscribe(self, callback: Callable[[dict], object]) -> None:
        """Call ``callback(record)`` for every event recorded from now on.

        Subscribers may themselves record events (a monitor emitting an
        ``alert``); those nested events are delivered to subscribers too,
        so a subscriber must ignore the kinds it emits.
        """
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[dict], object]) -> None:
        """Detach a subscriber registered with :meth:`subscribe`.

        Unknown callbacks are ignored, so detaching twice is safe.  Events
        recorded after the call are no longer delivered to ``callback``.
        """
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def event(self, kind: str, t: Optional[float] = None, **fields) -> None:
        self.event_fields(kind, self._clock() if t is None else t, fields)

    def event_fields(self, kind: str, t: float,
                     fields: Dict[str, Any]) -> None:
        """:meth:`event` with the fields as one dict, handed to the trace
        as it is (a kept span builds its record once)."""
        record = self.trace.record_fields(kind, t, fields)
        for callback in self._subscribers:
            callback(record)

    def inc(self, name: str, amount: float = 1, **labels: str) -> None:
        self.registry.counter(name, **labels).inc(amount)

    def gauge(self, name: str, value: float, **labels: str) -> None:
        self.registry.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        self.registry.histogram(name, **labels).observe(value)

    # ------------------------------------------------------------------ #
    # Spans                                                              #
    # ------------------------------------------------------------------ #

    @property
    def spans_enabled(self) -> bool:
        """True when span records are being emitted (``span_sample > 0``)."""
        return self.span_context.enabled

    def span(self, name: str, **fields: object) -> NullSpan:
        """Open a causal span around a timed phase.

        Always feeds the profiler (so ``--profile-out`` keeps working with
        span tracing off); emits a deterministic ``span`` trace record only
        when span tracing is on and the trace is kept by sampling.
        """
        return Span(self, name, dict(fields) if fields else None)

    def request_span(self, name: str, **fields: object) -> NullSpan:
        """Open a span on a per-request hot path.

        Unlike :meth:`span` this is a complete no-op (shared null span, no
        profiling) unless span tracing is enabled, so request-rate work
        costs nothing when nobody asked for spans.  Under head sampling the
        span profiles only when its trace is kept — request-path profiler
        phases are sampled along with their span records.
        """
        if not self.span_context.enabled:
            return NULL_SPAN
        return Span(self, name, dict(fields) if fields else None,
                    always_profile=False)

    def active_span_ref(self) -> Optional[SpanRef]:
        return self.span_context.active_ref()

    def resume_scope(self, ref: SpanRef):
        return self.span_context.resumed(ref)

    def now(self) -> float:
        return self._clock()

    # ------------------------------------------------------------------ #
    # Export                                                             #
    # ------------------------------------------------------------------ #

    def write_metrics(self, path: str) -> None:
        """Write the metrics snapshot as canonical (sorted-key) JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.registry.snapshot(), handle, sort_keys=True,
                      indent=2)
            handle.write("\n")
