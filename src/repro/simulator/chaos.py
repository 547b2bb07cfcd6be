"""Chaos harness: the DHT evaluation overlay under loss × churn sweeps.

Section 4.3 claims the evaluation framework survives churn.  The regular
churn benchmarks model churn as clean membership changes on a perfect
network; this harness makes the network itself hostile — seeded message
loss — while peers crash and rejoin, and measures what the resilience
toolkit (retries, replica quorum reads, repair sweeps) actually
delivers:

* **availability** — fraction of retrievals that met their read quorum;
* **hop inflation** — mean lookup hops vs the fault-free run (routing must
  stay O(log n) even while routing around dead or silent nodes);
* **ranking stability** — Kendall tau between the peer-quality ranking
  recovered from DHT-served evaluations under faults and the same ranking
  from the fault-free run.  Reputation is only as good as the data the
  overlay can still serve.

Everything is deterministic: the fault plan owns one seeded RNG, the
harness another; no global ``random`` state is touched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.ranking import kendall_tau
from ..dht.crypto import KeyAuthority
from ..dht.faults import FaultPlan
from ..dht.overlay_service import EvaluationOverlay
from ..dht.ring import DHTNetwork
from ..obs.recorder import NULL_RECORDER, NullRecorder
from ..obs.stats import mean

__all__ = ["ChaosConfig", "ChaosResult", "run_chaos_point",
           "run_chaos_sweep"]

#: A repair sweep runs on every round whose number is a multiple of this.
REPAIR_EVERY = 3


@dataclass(frozen=True)
class ChaosConfig:
    """One cell of the loss × churn grid."""

    peers: int = 24
    files: int = 40
    rounds: int = 30
    loss_rate: float = 0.0
    #: Per-round probability that one random alive peer crashes (and one
    #: previously-crashed peer rejoins).
    churn_rate: float = 0.0
    replication: int = 3
    record_ttl: float = 10_000.0
    seed: int = 11

    def __post_init__(self) -> None:
        if self.peers < 4:
            raise ValueError("need at least 4 peers")
        if self.files < 1:
            raise ValueError("need at least 1 file")
        if self.rounds < 1:
            raise ValueError("need at least 1 round")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ValueError("churn_rate must be in [0, 1]")


@dataclass
class ChaosResult:
    """Measured outcome of one chaos cell."""

    loss_rate: float
    churn_rate: float
    availability: float
    mean_hops: float
    retrievals: int
    #: Retrievals that missed their read quorum (availability complement).
    retrievals_incomplete: int
    failed_lookups: int
    drops: int
    retries: int
    repairs: int
    #: Per-peer score ranking recovered from DHT-served evaluations.
    scores: Dict[str, float] = field(default_factory=dict)
    #: Filled by :func:`run_chaos_sweep` against the fault-free cell.
    kendall_tau_vs_baseline: Optional[float] = None
    hop_ratio_vs_baseline: Optional[float] = None


def _peer_quality(index: int, peers: int) -> float:
    """Deterministic ground-truth quality, spread over (0.05, 0.95)."""
    return 0.05 + 0.9 * (index + 0.5) / peers


def run_chaos_point(config: ChaosConfig,
                    recorder: NullRecorder = NULL_RECORDER) -> ChaosResult:
    """Run one deterministic chaos cell and measure resilience."""
    faults = FaultPlan(drop_probability=config.loss_rate,
                       seed=config.seed + 1)
    overlay = EvaluationOverlay(DHTNetwork(), KeyAuthority(),
                                replication=config.replication,
                                record_ttl=config.record_ttl,
                                faults=faults, recorder=recorder)
    rng = random.Random(config.seed)
    #: Lookup hops of every retrieval, for the hop-inflation mean.
    hops: List[int] = []
    #: Simulation clock for the recorder: the current round's timestamp.
    clock = [0.0]
    recorder.bind_clock(lambda: clock[0])
    recorder.event("chaos_cell_start", loss=config.loss_rate,
                   churn=config.churn_rate, peers=config.peers,
                   files=config.files, rounds=config.rounds)

    peer_ids = [f"peer-{index:03d}" for index in range(config.peers)]
    quality = {pid: _peer_quality(index, config.peers)
               for index, pid in enumerate(peer_ids)}
    file_ids = [f"file-{index:03d}" for index in range(config.files)]
    for pid in peer_ids:
        overlay.register_user(pid)
    offline: List[str] = []
    failed_lookups = 0
    now = 0.0

    for round_number in range(config.rounds):
        now = float(round_number * 100)
        clock[0] = now
        # Each round is one trace: publishes, churn, reads, and repair all
        # hang off a ``chaos.round`` span, so the critical path of a bad
        # round points at the overlay operation that actually paid for it.
        with recorder.request_span("chaos.round", round=round_number):
            online = [pid for pid in peer_ids if pid not in offline]

            # Publication: each online peer refreshes evaluations for a few
            # files; the published value is its quality plus seeded noise,
            # so the per-peer mean recovers the quality ranking.
            for pid in online:
                for file_id in rng.sample(file_ids, min(3, len(file_ids))):
                    value = min(max(
                        quality[pid] + rng.uniform(-0.04, 0.04), 0.0), 1.0)
                    overlay.publish(pid, file_id, value, now)

            # Churn: crash one peer, resurrect one, per the churn rate.
            if config.churn_rate > 0.0 and rng.random() < config.churn_rate:
                online_now = [pid for pid in peer_ids if pid not in offline]
                if len(online_now) > config.replication + 1:
                    victim = rng.choice(online_now)
                    if overlay.network.has_node(victim):
                        overlay.network.fail(victim)
                    offline.append(victim)
                    if recorder.enabled:
                        recorder.event("churn_crash", t=now, peer=victim)
                        recorder.inc("chaos.crashes")
            if offline and rng.random() < config.churn_rate:
                returning = offline.pop(0)
                overlay.register_user(returning)
                overlay.republish_all(returning, now)
                if recorder.enabled:
                    recorder.event("churn_rejoin", t=now, peer=returning)
                    recorder.inc("chaos.rejoins")

            # Retrieval: online peers read random files through the overlay.
            online = [pid for pid in peer_ids if pid not in offline]
            for pid in rng.sample(online, min(4, len(online))):
                file_id = rng.choice(file_ids)
                retrieved = overlay.retrieve(pid, file_id, now)
                hops.append(retrieved.lookup_hops)
                if retrieved.replicas_contacted == 0:
                    failed_lookups += 1

            # Repair sweep: re-replicate what crashes took down.
            if round_number % REPAIR_EVERY == 0:
                overlay.repair_replicas(now)

    scores = _recover_scores(overlay, peer_ids, file_ids, now, hops,
                             recorder)
    result = ChaosResult(
        loss_rate=config.loss_rate,
        churn_rate=config.churn_rate,
        availability=overlay.availability,
        mean_hops=mean(float(h) for h in hops),
        retrievals=overlay.retrievals_total,
        retrievals_incomplete=(overlay.retrievals_total
                               - overlay.retrievals_complete),
        failed_lookups=failed_lookups,
        drops=overlay.tally.drops,
        retries=overlay.tally.retries,
        repairs=overlay.tally.repairs,
        scores=scores)
    recorder.event("chaos_cell_end", t=now, loss=config.loss_rate,
                   churn=config.churn_rate,
                   availability=result.availability,
                   incomplete=result.retrievals_incomplete,
                   mean_hops=result.mean_hops, drops=result.drops,
                   retries=result.retries, repairs=result.repairs)
    return result


def _recover_scores(overlay: EvaluationOverlay, peer_ids: List[str],
                    file_ids: List[str], now: float, hops: List[int],
                    recorder: NullRecorder = NULL_RECORDER
                    ) -> Dict[str, float]:
    """Per-peer mean evaluation as served by the DHT right now.

    Runs under a ``mechanism.refresh`` span: the full-catalog read that
    rebuilds reputation from DHT-served state is the mechanism-level
    operation whose children (``dht.retrieve`` → ``dht.lookup``, retries
    and all) a span trace should attribute end to end.  Each read's lookup
    hops are appended to ``hops``.
    """
    sums: Dict[str, float] = {pid: 0.0 for pid in peer_ids}
    counts: Dict[str, int] = {pid: 0 for pid in peer_ids}
    observer = next(pid for pid in peer_ids
                    if overlay.network.has_node(pid))
    with recorder.request_span("mechanism.refresh") as span:
        span.count("files", len(file_ids))
        for file_id in file_ids:
            retrieved = overlay.retrieve(observer, file_id, now)
            hops.append(retrieved.lookup_hops)
            for owner, value in retrieved.evaluations.items():
                if owner in sums:
                    sums[owner] += value
                    counts[owner] += 1
    return {pid: (sums[pid] / counts[pid]) if counts[pid] else 0.0
            for pid in peer_ids}


def run_chaos_sweep(loss_rates: List[float], churn_rates: List[float],
                    peers: int = 24, files: int = 40, rounds: int = 30,
                    seed: int = 11, replication: int = 3,
                    recorder: NullRecorder = NULL_RECORDER
                    ) -> List[ChaosResult]:
    """Sweep loss × churn; annotate each cell against the fault-free cell.

    The (0, 0) cell is always run first (injected if absent) and serves as
    the baseline for Kendall tau and hop-ratio comparisons.
    """
    losses = sorted(set(loss_rates) | {0.0})
    churns = sorted(set(churn_rates) | {0.0})
    results: List[ChaosResult] = []
    baseline: Optional[ChaosResult] = None
    for churn_rate in churns:
        for loss_rate in losses:
            result = run_chaos_point(ChaosConfig(
                peers=peers, files=files, rounds=rounds,
                loss_rate=loss_rate, churn_rate=churn_rate,
                replication=replication, seed=seed), recorder=recorder)
            if baseline is None:
                baseline = result
            result.kendall_tau_vs_baseline = kendall_tau(
                result.scores, baseline.scores)
            result.hop_ratio_vs_baseline = (
                result.mean_hops / baseline.mean_hops
                if baseline.mean_hops > 0 else 1.0)
            results.append(result)
    return results
