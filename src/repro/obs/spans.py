"""Deterministic causal spans: emission primitives and streaming analysis.

A span is a request-scoped timing record with parent/child links.  Span and
trace identifiers are derived purely from (seed, sim time, per-context
counters) — no ``uuid``, no wall clock — so two runs at the same seed emit
byte-identical span records.  Wall-clock time never enters a span record; it
only feeds the (non-deterministic, separately persisted) profiler.

Duration model
--------------
Spans accumulate *deterministic simulated cost*, not elapsed wall time:

* ``busy``  — cost added directly to this span via :meth:`Span.add_cost`
  (e.g. a DHT lookup's simulated latency).
* ``dur``   — ``busy`` plus the ``dur`` of every *synchronous* child
  (children opened while this span was on the stack).

This makes ``dur ≈ busy + Σ child.dur`` an exact invariant the analyzer can
verify, and makes critical paths meaningful in simulated seconds.

Causality across scheduled events
---------------------------------
The simulator engine captures the active span reference when a callback is
scheduled and resumes it when the callback fires.  A span opened inside a
resumed callback starts a *new segment* of the originating trace: it shares
the ``trace`` id, carries the scheduling span's id in ``link`` (not
``parent``), and its cost is **not** folded into the scheduling span's
``dur``.  The link records "which event caused this work to be scheduled";
when a freed upload slot starts a queued transfer, that is the slot-freeing
completion, which may belong to a different request than the queued one.

Sampling
--------
Head sampling is decided once per trace at the root: with ``sample = N`` the
k-th trace started by a recorder is kept iff ``(k - 1) % N == 0``.  Linked
segments inherit the keep decision of the originating trace, so sampling
keeps or drops whole causal chains.  Unkept spans still tick the id counters
(so kept ids are stable under any ``N``) but take a fast path otherwise:
no id derivation, no clock reads, no record.  Spans opened via
``Recorder.span`` (the always-on instrumentation sites; spans are the
only timing primitive) feed the profiler regardless of sampling; per-request
spans (``Recorder.request_span``) profile only when kept, so their
profiler phases are head-sampled along with their records.
"""

from __future__ import annotations

import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from .stats import QuantileSketch, ordered_sum

__all__ = [
    "NULL_SPAN",
    "NullSpan",
    "Span",
    "SpanContext",
    "SpanNode",
    "SpanTreeBuilder",
    "SpanAnalyzer",
    "SpanAnalysis",
    "OperationStats",
    "critical_path",
    "derive_span_id",
    "derive_trace_id",
    "span_node_from_event",
]

_MASK64 = (1 << 64) - 1
# Ids are masked to 63 bits so they always fit the signed int64 columns of
# the binary trace format.
_ID_MASK = (1 << 63) - 1

_PACK_DOUBLE = struct.Struct("<d")

# Relative tolerance for the dur == busy + sum(child dur) invariant; spans
# accumulate float costs in chronological order so drift is a few ulps.
_CONSISTENCY_RTOL = 1e-9
_CONSISTENCY_ATOL = 1e-12


def _mix64(*parts: int) -> int:
    """Splitmix64-style avalanche over a sequence of integers."""
    h = 0x9E3779B97F4A7C15
    for part in parts:
        h = (h ^ (part & _MASK64)) & _MASK64
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


def derive_trace_id(seed: int, t: float, counter: int) -> int:
    """Trace id from (seed, sim time of the root span, trace counter)."""
    (t_bits,) = struct.unpack("<Q", _PACK_DOUBLE.pack(float(t)))
    return _mix64(seed, t_bits, counter) & _ID_MASK


def derive_span_id(trace_id: int, counter: int) -> int:
    """Span id from the owning trace id and the per-context span counter."""
    return _mix64(trace_id, counter) & _ID_MASK


class NullSpan:
    """No-op span; also the base type (and API contract) for live spans.

    A shared :data:`NULL_SPAN` instance is returned wherever span tracing is
    disabled, so hot paths pay only a method call.
    """

    __slots__ = ()

    span_id: Optional[int] = None
    trace_id: Optional[int] = None
    parent_id: Optional[int] = None
    link_id: Optional[int] = None
    kept: bool = False

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        return False

    def add_cost(self, seconds: float) -> None:
        """Attribute ``seconds`` of simulated cost to this span."""

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a per-span counter (merged into profiler phase counters)."""

    def annotate(self, **fields: object) -> None:
        """Attach extra fields to the emitted span record."""


NULL_SPAN = NullSpan()

# A resumption reference: (trace_id, span_id, kept).
SpanRef = Tuple[int, int, bool]

# Shared ref for callbacks scheduled from unkept traces: the causal chain
# stays dropped without carrying (or deriving) any real ids.
_UNKEPT_REF: SpanRef = (0, 0, False)


class SpanContext:
    """Per-recorder span state: deterministic id allocation + span stack."""

    __slots__ = ("seed", "sample", "stack", "traces_started", "spans_started", "_resume")

    def __init__(self, seed: int = 0, sample: int = 0) -> None:
        self.seed = int(seed)
        # 0 = span records disabled; N >= 1 keeps every Nth trace.
        self.sample = int(sample)
        self.stack: List["Span"] = []
        self.traces_started = 0
        self.spans_started = 0
        self._resume: Optional[SpanRef] = None

    @property
    def enabled(self) -> bool:
        return self.sample > 0

    def begin(
        self, now: Any
    ) -> Tuple[Optional[int], Optional[int], Optional[int], Optional[int], bool, float]:
        """Allocate ids for a span opening now (``now`` is the sim clock).

        Returns ``(trace_id, span_id, parent_id, link_id, kept, t_begin)``.
        Unkept spans tick the counters (kept ids stay stable under any
        sampling rate) but skip id derivation and the clock read entirely.
        """
        parent_id: Optional[int] = None
        link_id: Optional[int] = None
        t = 0.0
        if self.stack:
            parent = self.stack[-1]
            trace_id = parent.trace_id
            parent_id = parent.span_id
            kept = parent.kept
        elif self._resume is not None:
            trace_id, link_id, kept = self._resume
            if not kept:
                trace_id = link_id = None
        else:
            self.traces_started += 1
            kept = self.sample > 0 and (self.traces_started - 1) % self.sample == 0
            trace_id = None
            if kept:
                t = now()
                trace_id = derive_trace_id(self.seed, t, self.traces_started)
        self.spans_started += 1
        if not kept:
            return trace_id, None, parent_id, link_id, False, t
        if parent_id is not None or link_id is not None:
            t = now()
        span_id = derive_span_id(trace_id or 0, self.spans_started)
        return trace_id, span_id, parent_id, link_id, True, t

    def active_ref(self) -> Optional[SpanRef]:
        """Reference to resume the current causal context in a scheduled callback."""
        if self.sample == 0:
            return None
        if self.stack:
            top = self.stack[-1]
            if not top.kept:
                return _UNKEPT_REF
            if top.trace_id is not None and top.span_id is not None:
                return (top.trace_id, top.span_id, True)
        return self._resume

    @contextmanager
    def resumed(self, ref: SpanRef) -> Iterator[None]:
        """Run a scheduled callback under the causal context that scheduled it."""
        previous = self._resume
        self._resume = ref
        try:
            yield
        finally:
            self._resume = previous


class Span(NullSpan):
    """A live span bound to a :class:`~repro.obs.recorder.Recorder`.

    Entering reads the sim clock, allocates deterministic ids and pushes the
    span on the context stack; exiting pops it, folds ``dur`` into the parent,
    records wall time + counters into the profiler, and (when the trace is
    kept) emits one ``span`` trace record keyed by sim time.
    """

    __slots__ = (
        "_recorder",
        "name",
        "span_id",
        "trace_id",
        "parent_id",
        "link_id",
        "kept",
        "t_begin",
        "_dur",
        "_busy",
        "_counters",
        "_fields",
        "_wall_start",
        "_profiled",
    )

    def __init__(
        self,
        recorder: Any,
        name: str,
        fields: Optional[Dict[str, object]],
        always_profile: bool = True,
    ) -> None:
        self._recorder = recorder
        self.name = name
        self.span_id: Optional[int] = None
        self.trace_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.link_id: Optional[int] = None
        self.kept = False
        self.t_begin = 0.0
        self._dur = 0.0
        self._busy = 0.0
        self._counters: Optional[Dict[str, int]] = None
        self._fields = fields
        self._wall_start = 0.0
        self._profiled = always_profile

    def __enter__(self) -> "Span":
        recorder = self._recorder
        context: SpanContext = recorder.span_context
        (
            self.trace_id,
            self.span_id,
            self.parent_id,
            self.link_id,
            self.kept,
            self.t_begin,
        ) = context.begin(recorder.now)
        context.stack.append(self)
        if self._profiled or self.kept:
            self._wall_start = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        recorder = self._recorder
        context: SpanContext = recorder.span_context
        top = context.stack.pop()
        if top is not self:  # pragma: no cover - defensive; with-blocks nest strictly
            raise RuntimeError(f"span stack corrupted: closed {self.name!r}, top was {top.name!r}")
        if context.stack:
            # Synchronous child: fold our full duration into the parent.
            context.stack[-1]._dur += self._dur
        if self._profiled or self.kept:
            elapsed = time.perf_counter() - self._wall_start
            recorder.profiler.record(self.name, elapsed, self._counters)
        if self.kept:
            record: Dict[str, object] = {}
            if self._fields:
                record.update(self._fields)
            if self._counters:
                record.update(self._counters)
            record["name"] = self.name
            record["span"] = self.span_id
            record["trace"] = self.trace_id
            if self.parent_id is not None:
                record["parent"] = self.parent_id
            if self.link_id is not None:
                record["link"] = self.link_id
            record["t_end"] = recorder.now()
            record["dur"] = self._dur
            record["busy"] = self._busy
            recorder.event_fields("span", self.t_begin, record)
        return False

    def add_cost(self, seconds: float) -> None:
        cost = float(seconds)
        self._busy += cost
        self._dur += cost

    def count(self, name: str, amount: int = 1) -> None:
        counters = self._counters
        if counters is None:
            counters = self._counters = {}
        counters[name] = counters.get(name, 0) + amount

    def annotate(self, **fields: object) -> None:
        if self._fields is None:
            self._fields = {}
        self._fields.update(fields)


# ---------------------------------------------------------------------------
# Streaming reconstruction and analysis
# ---------------------------------------------------------------------------


@dataclass
class SpanNode:
    """One reconstructed span with its synchronous children attached."""

    name: str
    span_id: int
    trace_id: int
    parent_id: Optional[int]
    link_id: Optional[int]
    t_begin: float
    t_end: float
    dur: float
    busy: float
    fields: Dict[str, Any] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def children_dur(self) -> float:
        return ordered_sum(child.dur for child in self.children)

    @property
    def consistent(self) -> bool:
        """Does ``dur`` match ``busy + Σ child.dur`` within float tolerance?"""
        expected = self.busy + self.children_dur
        tolerance = _CONSISTENCY_ATOL + _CONSISTENCY_RTOL * max(1.0, abs(self.dur))
        return abs(self.dur - expected) <= tolerance


def span_node_from_event(event: Mapping[str, Any]) -> Optional[SpanNode]:
    """Parse a trace event into a :class:`SpanNode`, or None if not a span."""
    if event.get("event") != "span":
        return None
    try:
        name = str(event["name"])
        span_id = int(event["span"])
        trace_id = int(event["trace"])
        t_begin = float(event["t"])
        t_end = float(event["t_end"])
        dur = float(event["dur"])
        busy = float(event["busy"])
    except (KeyError, TypeError, ValueError):
        return None
    parent = event.get("parent")
    link = event.get("link")
    reserved = ("seq", "event", "name", "span", "trace", "parent", "link", "t", "t_end", "dur", "busy")
    extras = {key: value for key, value in event.items() if key not in reserved}
    return SpanNode(
        name=name,
        span_id=span_id,
        trace_id=trace_id,
        parent_id=int(parent) if parent is not None else None,
        link_id=int(link) if link is not None else None,
        t_begin=t_begin,
        t_end=t_end,
        dur=dur,
        busy=busy,
        fields=extras,
    )


class SpanTreeBuilder:
    """Streaming span-tree reconstructor.

    Feed trace events in ``seq`` order.  Synchronous children always close —
    and are therefore recorded — before their parent, so a span's children
    have all arrived by the time the span itself is seen.  Each completed
    root (a span with no ``parent``) is returned with its full subtree
    attached; memory is bounded by the number of spans awaiting their parent,
    not by trace length.
    """

    def __init__(self) -> None:
        # parent span id -> children seen so far (in seq order).
        self._waiting: Dict[int, List[SpanNode]] = {}
        self.spans_seen = 0
        self.malformed = 0

    def feed(self, event: Mapping[str, Any]) -> Optional[SpanNode]:
        """Absorb one event; return a completed root tree when one closes."""
        if event.get("event") != "span":
            return None
        node = span_node_from_event(event)
        if node is None:
            self.malformed += 1
            return None
        self.spans_seen += 1
        node.children = self._waiting.pop(node.span_id, [])
        if node.parent_id is None:
            return node
        self._waiting.setdefault(node.parent_id, []).append(node)
        return None

    def finish(self) -> List[SpanNode]:
        """Drain spans whose parent never arrived (truncated trace), as roots."""
        orphans: List[SpanNode] = []
        for children in self._waiting.values():
            orphans.extend(children)
        self._waiting.clear()
        orphans.sort(key=lambda node: node.span_id)
        return orphans


def critical_path(root: SpanNode) -> List[SpanNode]:
    """Follow the costliest child from the root down; deterministic tie-break.

    Ties go to the earliest-recorded child (children are kept in seq order and
    ``max`` returns the first maximum).
    """
    path = [root]
    node = root
    while node.children:
        node = max(node.children, key=lambda child: child.dur)
        path.append(node)
    return path


@dataclass
class OperationStats:
    """Aggregate over every span sharing one operation name."""

    name: str
    count: int = 0
    total_dur: float = 0.0
    total_busy: float = 0.0
    durations: QuantileSketch = field(default_factory=QuantileSketch)

    def observe(self, node: SpanNode) -> None:
        self.count += 1
        self.total_dur += node.dur
        self.total_busy += node.busy
        self.durations.observe(node.dur)

    def to_dict(self) -> Dict[str, Any]:
        summary = self.durations.summary()
        return {
            "count": self.count,
            "total_dur": self.total_dur,
            "total_busy": self.total_busy,
            "p50": summary.get("p50"),
            "p95": summary.get("p95"),
            "p99": summary.get("p99"),
            "max": summary.get("max"),
        }


@dataclass
class PathStep:
    """One hop of a rendered critical path."""

    name: str
    dur: float
    busy: float
    consistent: bool
    counters: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "name": self.name,
            "dur": self.dur,
            "busy": self.busy,
            "consistent": self.consistent,
        }
        if self.counters:
            entry["counters"] = dict(sorted(self.counters.items()))
        return entry


@dataclass
class SpanAnalysis:
    """Result of a full streaming pass over a trace's span records."""

    spans: int
    traces: int
    segments: int
    orphans: int
    malformed: int
    inconsistent: int
    operations: Dict[str, OperationStats]
    critical_paths: Dict[str, List[PathStep]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spans": self.spans,
            "traces": self.traces,
            "segments": self.segments,
            "orphans": self.orphans,
            "malformed": self.malformed,
            "inconsistent": self.inconsistent,
            "operations": {
                name: stats.to_dict() for name, stats in sorted(self.operations.items())
            },
            "critical_paths": {
                name: [step.to_dict() for step in steps]
                for name, steps in sorted(self.critical_paths.items())
            },
        }


def _node_counters(node: SpanNode) -> Dict[str, int]:
    return {
        key: value
        for key, value in node.fields.items()
        if isinstance(value, int) and not isinstance(value, bool)
    }


class SpanAnalyzer:
    """Single-pass span analysis: per-operation stats + critical paths.

    Per-span aggregates are folded in as records stream by; completed root
    trees additionally contribute a dur-consistency check of every node and
    compete (by root ``dur``, first-seen winning ties) to be the exemplar
    critical path for their root operation name.
    """

    def __init__(self) -> None:
        self._builder = SpanTreeBuilder()
        self._operations: Dict[str, OperationStats] = {}
        self._traces = 0
        self._segments = 0
        self._inconsistent = 0
        # root name -> (root dur, rendered path)
        self._best_paths: Dict[str, Tuple[float, List[PathStep]]] = {}

    def feed(self, event: Mapping[str, Any]) -> None:
        if event.get("event") != "span":
            return
        node = span_node_from_event(event)
        if node is not None:
            stats = self._operations.get(node.name)
            if stats is None:
                stats = self._operations[node.name] = OperationStats(node.name)
            stats.observe(node)
        root = self._builder.feed(event)
        if root is not None:
            self._absorb_root(root)

    def _absorb_root(self, root: SpanNode) -> None:
        self._segments += 1
        if root.link_id is None:
            self._traces += 1
        self._inconsistent += _count_inconsistent(root)
        best = self._best_paths.get(root.name)
        if best is None or root.dur > best[0]:
            steps = [
                PathStep(
                    name=node.name,
                    dur=node.dur,
                    busy=node.busy,
                    consistent=node.consistent,
                    counters=_node_counters(node),
                )
                for node in critical_path(root)
            ]
            self._best_paths[root.name] = (root.dur, steps)

    def finish(self) -> SpanAnalysis:
        orphans = self._builder.finish()
        for orphan in orphans:
            self._inconsistent += _count_inconsistent(orphan)
        return SpanAnalysis(
            spans=self._builder.spans_seen,
            traces=self._traces,
            segments=self._segments,
            orphans=len(orphans),
            malformed=self._builder.malformed,
            inconsistent=self._inconsistent,
            operations=self._operations,
            critical_paths={name: steps for name, (_, steps) in self._best_paths.items()},
        )


def _count_inconsistent(root: SpanNode) -> int:
    total = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if not node.consistent:
            total += 1
        stack.extend(node.children)
    return total
