"""Profiling data: per-phase wall-clock totals and counters.

The profiler times nothing itself.  Its one writer is a closing
:class:`~repro.obs.spans.Span`, which folds its elapsed wall time and the
counters it accumulated into the phase named after it (:meth:`Profiler
.record`); spans are the only timing primitive.

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

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

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
    """Accumulates the wall time and counters spans report per phase."""

    def __init__(self) -> None:
        self._phases: Dict[str, PhaseStats] = {}

    def phase(self, name: str) -> PhaseStats:
        # Not ``setdefault``: that would build (and drop) a PhaseStats and
        # its sketch on every span close.
        stats = self._phases.get(name)
        if stats is None:
            stats = self._phases[name] = PhaseStats()
        return stats

    def record(self, name: str, elapsed: float,
               counters: Optional[Mapping[str, int]] = None) -> None:
        """Fold one span's elapsed wall time and counters into its phase."""
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
