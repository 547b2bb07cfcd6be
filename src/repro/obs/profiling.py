"""Profiling hooks: context-manager phase timers and per-phase counters.

Wall-clock timings are *profiling* data, not trace data: they feed perf
snapshots (``BENCH_obs.json``, ``--profile-out`` captures) and never the
deterministic ``events.jsonl`` / ``metrics.json`` artefacts, which must be
identical across runs at the same seed.  Keeping the two worlds in
separate objects makes the rule structural instead of a convention someone
has to remember.

Each phase keeps its per-call durations in a bounded
:class:`~repro.obs.stats.QuantileSketch`, so snapshots report
p50/p95/p99 latency per phase without the profiler's memory growing with
call count.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional

from .stats import QuantileSketch

__all__ = ["PhaseStats", "Profiler"]


@dataclass
class PhaseStats:
    """Accumulated wall-clock cost of one named phase."""

    calls: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    durations: QuantileSketch = field(default_factory=QuantileSketch)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0


class Profiler:
    """Names phases, times them, and counts what happened inside them."""

    def __init__(self) -> None:
        self._phases: Dict[str, PhaseStats] = {}

    def phase(self, name: str) -> PhaseStats:
        return self._phases.setdefault(name, PhaseStats())

    @contextmanager
    def timer(self, name: str) -> Iterator[PhaseStats]:
        """Time a ``with`` block into the named phase."""
        stats = self.phase(name)
        started = time.perf_counter()
        try:
            yield stats
        finally:
            elapsed = time.perf_counter() - started
            stats.calls += 1
            stats.total_seconds += elapsed
            stats.max_seconds = max(stats.max_seconds, elapsed)
            stats.durations.observe(elapsed)

    def count(self, name: str, counter: str, amount: int = 1) -> None:
        """Bump a per-phase counter (e.g. events processed per run)."""
        counters = self.phase(name).counters
        counters[counter] = counters.get(counter, 0) + amount

    def record(self, name: str, elapsed: float,
               counters: Optional[Mapping[str, int]] = None) -> None:
        """Fold one already-timed call into the named phase.

        Spans time themselves (their exit knows the elapsed wall time and
        the counters accumulated inside), so they report here instead of
        going through :meth:`timer`.
        """
        stats = self.phase(name)
        stats.calls += 1
        stats.total_seconds += elapsed
        stats.max_seconds = max(stats.max_seconds, elapsed)
        stats.durations.observe(elapsed)
        if counters:
            existing = stats.counters
            for counter, amount in counters.items():
                existing[counter] = existing.get(counter, 0) + amount

    def __len__(self) -> int:
        return len(self._phases)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All phases as a sorted, JSON-serialisable dict.

        Includes per-phase duration percentiles from the sketch; these are
        wall-clock figures and belong only in profiling artefacts.  A
        phase's ``counters`` appear only when it counted something.
        """
        snapshot: Dict[str, Dict[str, object]] = {}
        for name, stats in sorted(self._phases.items()):
            entry: Dict[str, object] = {
                "calls": stats.calls,
                "total_seconds": stats.total_seconds,
                "mean_seconds": stats.mean_seconds,
                "max_seconds": stats.max_seconds,
                "p50_seconds": stats.durations.percentile(50.0),
                "p95_seconds": stats.durations.percentile(95.0),
                "p99_seconds": stats.durations.percentile(99.0),
            }
            if stats.counters:
                entry["counters"] = dict(sorted(stats.counters.items()))
            snapshot[name] = entry
        return snapshot
