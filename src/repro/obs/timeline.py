"""Per-peer reputation timelines reconstructed from an event trace.

The simulator emits one ``reputation_snapshot`` event per peer at every
mechanism refresh (see :mod:`repro.simulator.simulation`); this module
folds those — plus the download stream — into :class:`PeerTimeline`
objects: reputation, service class, upload/download byte balance and
fake-served counts sampled along simulation time.  The dashboard and the
``repro monitor`` report both render from these, and the detectors'
view of the world can be cross-checked against them.

Everything is plain data derived deterministically from the trace.

:class:`TimelineBuilder` and :class:`FakeFractionAccumulator` are the
feed-style (one event at a time) forms the single-pass dashboard uses so
one loop over a streamed trace can feed every consumer at once;
:func:`build_timelines` wraps the first.  Note timelines inherently hold
one sample per snapshot — they are the one dashboard input whose size
scales with refresh count (not with the raw event count), which is fine:
snapshots are sparse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple

from .detectors import FakeOutbreakDetector
from .stats import ordered_sum

__all__ = ["PeerSample", "PeerTimeline", "TimelineBuilder",
           "FakeFractionAccumulator", "build_timelines",
           "class_mean_series"]


@dataclass(frozen=True)
class PeerSample:
    """One refresh-time observation of a peer."""

    t: float
    #: Global reputation score (mechanism scale).
    score: float
    #: Score normalised by the population maximum at the same refresh.
    norm: float
    #: Incentive bandwidth class, 0 (starved) .. 3 (full service).
    service_class: int
    bytes_up: float
    bytes_down: float
    fakes_served: int
    online: bool


@dataclass
class PeerTimeline:
    """All samples of one peer, in simulation-time order."""

    peer: str
    cls: str = "unknown"
    samples: List[PeerSample] = field(default_factory=list)

    @property
    def last(self) -> PeerSample:
        if not self.samples:
            raise ValueError(f"timeline for {self.peer} is empty")
        return self.samples[-1]

    def series(self, attribute: str) -> List[Tuple[float, float]]:
        """``(t, value)`` pairs for one sample attribute."""
        return [(sample.t, float(getattr(sample, attribute)))
                for sample in self.samples]


class TimelineBuilder:
    """Feed-style timeline construction for single-pass trace consumers."""

    def __init__(self) -> None:
        self._timelines: Dict[str, PeerTimeline] = {}

    def feed(self, event: Mapping) -> None:
        """Absorb one event; non-snapshot kinds are ignored."""
        if event.get("event") != "reputation_snapshot":
            return
        peer = str(event.get("peer"))
        timeline = self._timelines.setdefault(peer, PeerTimeline(peer=peer))
        timeline.cls = str(event.get("cls", timeline.cls))
        timeline.samples.append(PeerSample(
            t=float(event.get("t", 0.0)),
            score=float(event.get("score", 0.0)),
            norm=float(event.get("norm", 0.0)),
            service_class=int(event.get("service_class", 0)),
            bytes_up=float(event.get("bytes_up", 0.0)),
            bytes_down=float(event.get("bytes_down", 0.0)),
            fakes_served=int(event.get("fakes_served", 0)),
            online=bool(event.get("online", True)),
        ))

    def finish(self) -> Dict[str, PeerTimeline]:
        """Peer id -> timeline, sorted by peer id."""
        return dict(sorted(self._timelines.items()))


def build_timelines(events: Iterable[Mapping]) -> Dict[str, PeerTimeline]:
    """Peer id -> timeline, from a trace's ``reputation_snapshot`` events."""
    builder = TimelineBuilder()
    for event in events:
        builder.feed(event)
    return builder.finish()


def class_mean_series(timelines: Mapping[str, PeerTimeline],
                      attribute: str = "norm"
                      ) -> Dict[str, List[Tuple[float, float]]]:
    """Behaviour class -> mean of ``attribute`` across its peers per tick."""
    buckets: Dict[str, Dict[float, List[float]]] = {}
    for timeline in timelines.values():
        per_class = buckets.setdefault(timeline.cls, {})
        for sample in timeline.samples:
            per_class.setdefault(sample.t, []).append(
                float(getattr(sample, attribute)))
    series: Dict[str, List[Tuple[float, float]]] = {}
    for cls in sorted(buckets):
        series[cls] = [(t, ordered_sum(values) / len(values))
                       for t, values in sorted(buckets[cls].items())]
    return series


class FakeFractionAccumulator:
    """Feed-style windowed fake-fraction counting (one counter per window).

    Buckets downloads by :attr:`FakeOutbreakDetector.WINDOW_SECONDS`, so
    the dashboard curve and the detector's alerts line up.
    """

    def __init__(self) -> None:
        self._counts: Dict[int, List[int]] = {}

    def feed(self, event: Mapping) -> None:
        """Absorb one event; non-download kinds are ignored."""
        if event.get("event") != "download":
            return
        bucket = int(float(event.get("t", 0.0))
                     // FakeOutbreakDetector.WINDOW_SECONDS)
        pair = self._counts.setdefault(bucket, [0, 0])
        pair[0] += 1
        if event.get("fake"):
            pair[1] += 1

    def finish(self) -> List[Tuple[float, float, int]]:
        """``(window_end, fake_fraction, downloads)`` per fixed window."""
        return [((bucket + 1) * FakeOutbreakDetector.WINDOW_SECONDS,
                 (fakes / downloads) if downloads else 0.0,
                 downloads)
                for bucket, (downloads, fakes)
                in sorted(self._counts.items())]
