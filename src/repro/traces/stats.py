"""Trace statistics: validate that synthetic traces look Maze-like.

The generator is only a faithful substitute for the proprietary Maze log if
its marginals have the right shape; this module computes the checks the
tests assert on (Zipf-like popularity, heavy-tailed activity, file life
cycles, per-day volume).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Sequence

from ..obs.stats import ordered_sum
from .records import DownloadTrace

__all__ = ["TraceStatistics", "compute_statistics", "zipf_exponent_fit",
           "gini_coefficient"]

_DAY_SECONDS = 24 * 3600.0


def zipf_exponent_fit(counts: Sequence[int]) -> float:
    """Least-squares slope of log(count) vs. log(rank) (negated).

    For a Zipf law ``count_r ~ r^-s`` the fit returns ``s``.  Requires at
    least two distinct positive counts.
    """
    positive = sorted((c for c in counts if c > 0), reverse=True)
    if len(positive) < 2:
        raise ValueError("need at least two positive counts for a Zipf fit")
    xs = [math.log(rank) for rank in range(1, len(positive) + 1)]
    ys = [math.log(count) for count in positive]
    n = len(xs)
    mean_x = ordered_sum(xs) / n
    mean_y = ordered_sum(ys) / n
    sxx = ordered_sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate rank axis")
    sxy = ordered_sum((x - mean_x) * (y - mean_y)
                      for x, y in zip(xs, ys))
    return -(sxy / sxx)


def gini_coefficient(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative distribution (0=equal, ->1=skewed)."""
    data = sorted(v for v in values if v >= 0)
    if not data:
        return 0.0
    total = ordered_sum(data)
    if total == 0:
        return 0.0
    n = len(data)
    weighted = ordered_sum((index + 1) * value
                           for index, value in enumerate(data))
    gini = (2.0 * weighted) / (n * total) - (n + 1.0) / n
    return min(max(gini, 0.0), 1.0)


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of a download trace."""

    num_records: int
    num_users: int
    num_files: int
    duration_days: float
    downloads_per_day: Dict[int, int]
    popularity_zipf_exponent: float
    downloader_activity_gini: float
    uploader_activity_gini: float
    fake_download_fraction: float
    median_file_distinct_days: float


def compute_statistics(trace: DownloadTrace) -> TraceStatistics:
    """Compute :class:`TraceStatistics` for ``trace`` (must be non-empty)."""
    if not len(trace):
        raise ValueError("cannot compute statistics of an empty trace")

    file_counts = Counter(record.content_hash for record in trace)
    downloader_counts = Counter(record.downloader_id for record in trace)
    uploader_counts = Counter(record.uploader_id for record in trace)
    per_day: Counter = Counter(int(record.timestamp // _DAY_SECONDS)
                               for record in trace)

    file_days: Dict[str, set] = {}
    for record in trace:
        file_days.setdefault(record.content_hash, set()).add(
            int(record.timestamp // _DAY_SECONDS))
    distinct_days = sorted(len(days) for days in file_days.values())
    median_days = float(distinct_days[len(distinct_days) // 2])

    return TraceStatistics(
        num_records=len(trace),
        num_users=len(trace.users()),
        num_files=len(file_counts),
        duration_days=trace.duration() / _DAY_SECONDS,
        downloads_per_day=dict(per_day),
        popularity_zipf_exponent=zipf_exponent_fit(list(file_counts.values())),
        downloader_activity_gini=gini_coefficient(
            list(downloader_counts.values())),
        uploader_activity_gini=gini_coefficient(list(uploader_counts.values())),
        fake_download_fraction=trace.fake_fraction(),
        median_file_distinct_days=median_days,
    )
