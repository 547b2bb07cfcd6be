"""Labelled metrics registry: Counter / Gauge / Histogram.

A deliberately small, Prometheus-flavoured registry.  Instruments are
created on first use and keyed by ``name`` plus a sorted label set, so
``registry.counter("downloads", cls="honest")`` always returns the same
:class:`Counter`.  ``snapshot()`` renders everything into a plain, sorted,
JSON-serialisable dict — histograms summarise to count/mean/min/max and
p50/p95/p99 via :mod:`repro.obs.stats`.

Nothing here reads the wall clock: values are whatever the caller observed,
so a snapshot of a seeded simulation is bit-for-bit reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple, Union

from .stats import ordered_sum, summarize

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

Number = Union[int, float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount


class Histogram:
    """A distribution of observed values, summarised with percentiles."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: List[float] = []

    def observe(self, value: Number) -> None:
        self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return ordered_sum(self._values)

    def values(self) -> List[float]:
        return list(self._values)

    def summary(self) -> Dict[str, float]:
        return summarize(self._values)


def _key(name: str, labels: Mapping[str, str]) -> str:
    """Canonical instrument key: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """Get-or-create home for every instrument of one run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    # Instruments                                                        #
    # ------------------------------------------------------------------ #

    def counter(self, name: str, **labels: str) -> Counter:
        return self._counters.setdefault(_key(name, labels), Counter())

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._gauges.setdefault(_key(name, labels), Gauge())

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._histograms.setdefault(_key(name, labels), Histogram())

    # ------------------------------------------------------------------ #
    # Export                                                             #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))

    def histogram_items(self) -> List[Tuple[str, Histogram]]:
        """(key, histogram) pairs in deterministic key order."""
        return sorted(self._histograms.items())

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All instruments as a sorted, JSON-serialisable dict."""
        return {
            "counters": {key: self._counters[key].value
                         for key in sorted(self._counters)},
            "gauges": {key: self._gauges[key].value
                       for key in sorted(self._gauges)},
            "histograms": {key: self._histograms[key].summary()
                           for key in sorted(self._histograms)},
        }
