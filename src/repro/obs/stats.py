"""Shared descriptive statistics for metrics and reports.

One home for the ``mean``/percentile arithmetic that used to be duplicated
as private ``_mean`` helpers across the simulator and analysis modules.
Everything here is dependency-free, deterministic, and defined for empty
input (returning 0.0), because metric accumulators call these on whatever
happened to be recorded — possibly nothing.

Percentiles use linear interpolation between closest ranks (the same
convention as ``numpy.percentile``'s default), so p50 of ``[1, 2, 3, 4]``
is 2.5, not 2 or 3.

For million-event traces the batch helpers don't scale (they hold every
observation), so this module also provides the streaming accumulator the
single-pass trace consumers are built on: :class:`QuantileSketch` (exact
count / mean / min / max, and exact quantiles up to a fixed budget, then a
deterministic bounded-memory compression).  It is order-deterministic: the
same observation stream always produces the same summary, which keeps
``repro report`` output reproducible across runs at the same seed.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["ordered_sum", "mean", "percentile", "percentiles", "summarize",
           "DEFAULT_QUANTILES", "QuantileSketch"]

#: The quantiles every histogram summary reports: median plus the two tail
#: marks the paper's wait-time / hop-count claims care about.
DEFAULT_QUANTILES: Sequence[float] = (50.0, 95.0, 99.0)


def ordered_sum(values: Iterable[float]) -> float:
    """Add ``values`` left to right from 0.0, rounding after every step.

    Builtin ``sum()`` does exactly this up to CPython 3.11; from 3.12 it
    compensates float rounding (Neumaier), so the same inputs can sum to a
    different last bit.  Every float total in the package goes through
    here, so outputs match across interpreters.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for empty input."""
    data = list(values)
    return ordered_sum(data) / len(data) if data else 0.0


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation between ranks.

    Returns 0.0 for empty input so accumulators can report unconditionally.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return float(data[0])
    rank = (len(data) - 1) * (q / 100.0)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return float(data[lower])
    weight = rank - lower
    return data[lower] * (1.0 - weight) + data[upper] * weight


def percentiles(values: Iterable[float],
                qs: Sequence[float] = DEFAULT_QUANTILES) -> Dict[str, float]:
    """``{"p50": ..., "p95": ..., ...}`` for the requested quantiles."""
    data = sorted(values)
    return {f"p{q:g}": percentile(data, q) for q in qs}


def summarize(values: Iterable[float]) -> Dict[str, float]:
    """Full summary: count, mean, min, max plus the default percentiles."""
    data: List[float] = sorted(values)
    if not data:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                **{f"p{q:g}": 0.0 for q in DEFAULT_QUANTILES}}
    return {
        "count": len(data),
        "mean": mean(data),
        "min": float(data[0]),
        "max": float(data[-1]),
        **percentiles(data),
    }


class QuantileSketch:
    """Bounded-memory streaming quantiles with a deterministic compression.

    Below :attr:`EXACT_LIMIT` observations the sketch simply buffers values
    and :meth:`summary` is *identical* to :func:`summarize` — small traces
    keep byte-stable reports.  Past the limit, the buffer is folded into at
    most :attr:`COMPRESSED_SIZE` weighted centroids ``(value, weight)``: the merged
    sequence is sorted and adjacent observations are grouped into
    equal-mass runs whose weighted mean becomes the centroid.  No
    randomness, no wall clock — the same stream always compresses to the
    same centroids, so two runs at the same seed still report the same
    percentiles.

    Rank error after compression is bounded by the centroid mass
    (``count / COMPRESSED_SIZE``), i.e. ~0.1% of ranks —
    ample for the p50/p95/p99 marks the reports quote.  ``min``/``max``/
    ``mean``/``count`` stay exact throughout.
    """

    #: Observations buffered exactly before the first compression.
    EXACT_LIMIT = 4096
    #: Centroids a compression folds the observations into, at most.
    COMPRESSED_SIZE = 1024

    __slots__ = ("count", "_sum", "_min", "_max", "_buffer", "_centroids")

    def __init__(self) -> None:
        self.count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: Raw observations not yet folded into centroids.
        self._buffer: List[float] = []
        #: ``(value, weight)`` sorted by value; empty while still exact.
        self._centroids: List[Tuple[float, float]] = []

    @property
    def is_exact(self) -> bool:
        """True while no compression has happened yet."""
        return not self._centroids

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._buffer.append(value)
        if len(self._buffer) >= self.EXACT_LIMIT:
            self._compress()

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    def _compress(self) -> None:
        """Fold the buffer into at most :attr:`COMPRESSED_SIZE` centroids."""
        merged: List[Tuple[float, float]] = self._centroids + [
            (value, 1.0) for value in sorted(self._buffer)]
        merged.sort(key=lambda pair: pair[0])
        self._buffer = []
        total = ordered_sum(weight for _, weight in merged)
        target_mass = total / self.COMPRESSED_SIZE
        centroids: List[Tuple[float, float]] = []
        acc_value = 0.0
        acc_weight = 0.0
        for value, weight in merged:
            acc_value += value * weight
            acc_weight += weight
            if acc_weight >= target_mass:
                centroids.append((acc_value / acc_weight, acc_weight))
                acc_value = 0.0
                acc_weight = 0.0
        if acc_weight > 0.0:
            centroids.append((acc_value / acc_weight, acc_weight))
        self._centroids = centroids

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100); exact below :attr:`EXACT_LIMIT`."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        if self.is_exact:
            return percentile(self._buffer, q)
        if self._buffer:
            self._compress()
        # Anchor each centroid at the mid-rank of the mass it absorbed;
        # with unit weights this degenerates to the exact rank positions.
        target = (self.count - 1) * (q / 100.0)
        anchors: List[Tuple[float, float]] = [(0.0, self._min)]
        cumulative = 0.0
        for value, weight in self._centroids:
            anchors.append((cumulative + (weight - 1.0) / 2.0, value))
            cumulative += weight
        anchors.append((float(self.count - 1), self._max))
        for index in range(1, len(anchors)):
            rank, value = anchors[index]
            if target <= rank:
                prev_rank, prev_value = anchors[index - 1]
                span = rank - prev_rank
                if span <= 0.0:
                    return value
                fraction = (target - prev_rank) / span
                return prev_value + (value - prev_value) * fraction
        return self._max

    def summary(self) -> Dict[str, float]:
        """Same layout as :func:`summarize`; identical values while exact."""
        if self.count == 0:
            return summarize(())
        if self.is_exact:
            return summarize(self._buffer)
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
            **{f"p{q:g}": self.percentile(q) for q in DEFAULT_QUANTILES},
        }
