"""Metric collection for simulation runs.

Collectors accumulate per-behaviour-class outcomes so benchmarks can compare
classes (honest vs. free-rider vs. polluter) and mechanisms (the paper's
system vs. baselines) on:

* download outcomes: real/fake completions, fakes *blocked* pre-download;
* service quality: queue wait times and allocated bandwidth per class;
* pollution cleanup: latency from a fake copy's creation to its deletion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.recorder import NullRecorder
from ..obs.stats import mean

__all__ = ["ClassStats", "SimulationMetrics"]


@dataclass
class ClassStats:
    """Outcome accumulators for one behaviour class."""

    real_downloads: int = 0
    fake_downloads: int = 0
    fakes_blocked: int = 0
    requests_rejected: int = 0
    wait_times: List[float] = field(default_factory=list)
    bandwidths: List[float] = field(default_factory=list)
    bytes_received: float = 0.0
    bytes_served: float = 0.0

    @property
    def total_downloads(self) -> int:
        return self.real_downloads + self.fake_downloads

    @property
    def fake_fraction(self) -> float:
        total = self.total_downloads
        return self.fake_downloads / total if total else 0.0

    @property
    def mean_wait(self) -> float:
        return mean(self.wait_times)

    @property
    def mean_bandwidth(self) -> float:
        return mean(self.bandwidths)


@dataclass
class SimulationMetrics:
    """All metrics of one simulation run."""

    per_class: Dict[str, ClassStats] = field(default_factory=dict)
    #: (file_id, peer_id) -> creation time of a fake copy (for latency).
    _fake_copy_created: Dict[Tuple[str, str], float] = field(default_factory=dict)
    fake_removal_latencies: List[float] = field(default_factory=list)
    total_requests: int = 0
    blind_judgements: int = 0
    informed_judgements: int = 0

    def stats_for(self, label: str) -> ClassStats:
        return self.per_class.setdefault(label, ClassStats())

    # ------------------------------------------------------------------ #
    # Recording                                                          #
    # ------------------------------------------------------------------ #

    def record_request(self) -> None:
        self.total_requests += 1

    def record_judgement(self, blind: bool) -> None:
        if blind:
            self.blind_judgements += 1
        else:
            self.informed_judgements += 1

    def record_download(self, label: str, is_fake: bool, size_bytes: float,
                        wait_time: float, bandwidth: float) -> None:
        stats = self.stats_for(label)
        if is_fake:
            stats.fake_downloads += 1
        else:
            stats.real_downloads += 1
        stats.bytes_received += size_bytes
        stats.wait_times.append(wait_time)
        stats.bandwidths.append(bandwidth)

    def record_blocked_fake(self, label: str) -> None:
        self.stats_for(label).fakes_blocked += 1

    def record_rejected_request(self, label: str) -> None:
        self.stats_for(label).requests_rejected += 1

    def record_bytes_served(self, label: str, size_bytes: float) -> None:
        self.stats_for(label).bytes_served += size_bytes

    def record_fake_copy(self, file_id: str, peer_id: str, now: float) -> None:
        self._fake_copy_created[(file_id, peer_id)] = now

    def record_fake_removal(self, file_id: str, peer_id: str,
                            now: float) -> Optional[float]:
        """Returns the creation-to-removal latency when the copy was known."""
        created = self._fake_copy_created.pop((file_id, peer_id), None)
        if created is None:
            return None
        latency = max(now - created, 0.0)
        self.fake_removal_latencies.append(latency)
        return latency

    # ------------------------------------------------------------------ #
    # Aggregates                                                         #
    # ------------------------------------------------------------------ #

    @property
    def overall_fake_fraction(self) -> float:
        classes = self.per_class.values()
        # Download counts are ints: builtin sum() is exact on them.
        fake = sum(stats.fake_downloads for stats in classes)  # repro: allow[NUM003]
        total = sum(stats.total_downloads for stats in classes)  # repro: allow[NUM003]
        return fake / total if total else 0.0

    @property
    def mean_fake_removal_latency(self) -> float:
        return mean(self.fake_removal_latencies)

    @property
    def outstanding_fake_copies(self) -> int:
        """Fake copies created during the run and never removed."""
        return len(self._fake_copy_created)

    def class_labels(self) -> List[str]:
        return sorted(self.per_class)

    # ------------------------------------------------------------------ #
    # Observability export                                               #
    # ------------------------------------------------------------------ #

    def export(self, recorder: NullRecorder) -> None:
        """Feed the run's accumulators into a recorder's metric registry.

        Called once at the end of a run; a ``NULL_RECORDER`` makes this a
        no-op, so the uninstrumented path pays nothing.
        """
        if not recorder.enabled:
            return
        recorder.inc("sim.requests.total", self.total_requests)
        recorder.inc("sim.judgements.blind", self.blind_judgements)
        recorder.inc("sim.judgements.informed", self.informed_judgements)
        recorder.gauge("sim.fake_fraction.overall",
                       self.overall_fake_fraction)
        recorder.gauge("sim.fakes.outstanding_copies",
                       self.outstanding_fake_copies)
        for label in self.class_labels():
            stats = self.per_class[label]
            recorder.inc("sim.downloads.real", stats.real_downloads,
                         cls=label)
            recorder.inc("sim.downloads.fake", stats.fake_downloads,
                         cls=label)
            recorder.inc("sim.fakes.blocked", stats.fakes_blocked, cls=label)
            recorder.inc("sim.requests.rejected", stats.requests_rejected,
                         cls=label)
            for wait in stats.wait_times:
                recorder.observe("sim.wait_seconds", wait, cls=label)
            for bandwidth in stats.bandwidths:
                recorder.observe("sim.bandwidth_bytes", bandwidth, cls=label)
        for latency in self.fake_removal_latencies:
            recorder.observe("sim.fake_removal_latency", latency)
