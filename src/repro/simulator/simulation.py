"""The file-sharing simulation: peers + workload + mechanism + incentives.

:class:`FileSharingSimulation` wires the substrates together:

* a :class:`~repro.simulator.engine.EventEngine` drives time;
* a :class:`~repro.simulator.workload.WorkloadModel` emits download requests;
* peers with :mod:`~repro.simulator.behaviors` strategies react to
  completed downloads (keep/delete/vote/rank/blacklist);
* a pluggable :class:`~repro.baselines.base.ReputationMechanism` observes
  every signal and, when enabled, steers the system through the paper's two
  levers — **file filtering** (Eq. 9 judgement before download) and
  **service differentiation** (queue offsets + bandwidth quotas, §3.4);
* a :class:`~repro.simulator.metrics.SimulationMetrics` records outcomes.

The simulation is fully deterministic for a fixed configuration.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..baselines.base import ReputationMechanism
from ..baselines.null import NullMechanism
from ..core.durability.journal import DurabilityManager
from ..obs.recorder import NULL_RECORDER, NullRecorder
from ..traces.catalog import FileCatalog
from .behaviors import (CamouflagedPolluterBehavior, ColluderBehavior,
                        ForgerBehavior, FreeRiderBehavior, HonestBehavior,
                        LazyVoterBehavior, PeerBehavior, PolluterBehavior,
                        WhitewasherBehavior)
from .churn import ChurnModel
from .engine import EventEngine
from .files import FileRegistry
from .metrics import SimulationMetrics
from .peers import Peer, UploadRequest
from .workload import WorkloadModel

__all__ = ["SimulationConfig", "ScenarioSpec", "FileSharingSimulation"]

_DAY_SECONDS = 24 * 3600.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Behaviour mix of the peer population."""

    honest: int = 50
    lazy_voters: int = 0
    free_riders: int = 0
    polluters: int = 0
    camouflaged_polluters: int = 0
    colluders: int = 0
    forgers: int = 0
    whitewashers: int = 0
    #: Colluders are split into cliques of this size.
    clique_size: int = 5
    #: Vote probability of honest peers (incentive experiments sweep this).
    honest_vote_probability: float = 0.3

    def total(self) -> int:
        return (self.honest + self.lazy_voters + self.free_riders
                + self.polluters + self.camouflaged_polluters
                + self.colluders + self.forgers + self.whitewashers)


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to run one simulation."""

    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    duration_seconds: float = 3 * _DAY_SECONDS
    num_files: int = 300
    fake_ratio: float = 0.25
    request_rate: float = 0.05
    seed: int = 42
    #: Apply Eq. 9-style filtering before downloads.
    use_file_filtering: bool = True
    #: Apply queue offsets and bandwidth quotas (Section 3.4).
    use_service_differentiation: bool = True
    #: Maintenance tick: retention refresh + mechanism refresh + periodic
    #: behaviours.
    maintenance_interval_seconds: float = 6 * 3600.0
    #: Session churn; ``None`` keeps every peer online from time 0.
    churn: Optional[ChurnModel] = None

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        if self.scenario.total() < 2:
            raise ValueError("need at least two peers")
        if self.maintenance_interval_seconds <= 0:
            raise ValueError("maintenance_interval_seconds must be positive")


class FileSharingSimulation:
    """A complete, deterministic P2P file-sharing simulation run."""

    #: Reject threshold on the mechanism's file score (Eq. 9 filtering).
    FILE_SCORE_THRESHOLD = 0.5
    #: Section 3.4 as the simulator applies it to every mechanism: the
    #: queue offset of a fully reputable requester, and the bandwidth
    #: floor a known requester's quota interpolates up from.
    MAX_QUEUE_OFFSET_SECONDS = 120.0
    MIN_BANDWIDTH_QUOTA = 16 * 1024.0
    #: Mean delay between finishing a download and judging the file (the
    #: user has to actually watch/listen before recognising a fake).
    MEAN_CONSUMPTION_DELAY_SECONDS = 2 * 3600.0
    #: Copies of each file seeded before the run starts.
    INITIAL_REPLICAS = 3

    def __init__(self, config: SimulationConfig,
                 mechanism: Optional[ReputationMechanism] = None,
                 recorder: NullRecorder = NULL_RECORDER,
                 durability: Optional[DurabilityManager] = None):
        self.config = config
        #: Optional crash safety: when set, :meth:`run` attaches the
        #: journal before the first event and every maintenance tick is a
        #: durability safe point (WAL fsync + possible snapshot).  The
        #: *owner* of the manager closes it — the simulation never does,
        #: so a SimulatedCrash propagating out of ``run`` leaves the
        #: directory exactly as a killed process would.
        self.durability = durability
        self.mechanism = mechanism if mechanism is not None else NullMechanism()
        self.rng = random.Random(config.seed)
        #: Observability sink; events are keyed by ``engine.now`` and the
        #: default NULL_RECORDER leaves the run byte-identical to seed.
        self.recorder = recorder
        self.engine = EventEngine(recorder=recorder)
        recorder.bind_clock(lambda: self.engine.now)
        self.mechanism.bind_recorder(recorder)
        self.metrics = SimulationMetrics()
        self.workload = WorkloadModel(request_rate=config.request_rate,
                                      seed=config.seed + 1)
        self.catalog = FileCatalog.generate(
            config.num_files, random.Random(config.seed + 2),
            fake_ratio=config.fake_ratio,
            trace_days=config.duration_seconds / _DAY_SECONDS)
        self.registry = FileRegistry(self.catalog)
        self.peers: Dict[str, Peer] = {}
        self._votes: Dict[Tuple[str, str], float] = {}
        self._blacklist_counts: Dict[str, int] = {}
        self._download_sources: Dict[Tuple[str, str], str] = {}
        #: Per-peer [bytes_up, bytes_down, fakes_served], maintained only
        #: under a live recorder (feeds the refresh-time timeline events).
        self._peer_flows: Dict[str, List[float]] = {}
        self._whitewash_counter = itertools.count(1)
        self._build_population()
        self._seed_initial_copies()

    # ------------------------------------------------------------------ #
    # Population setup                                                   #
    # ------------------------------------------------------------------ #

    def _build_population(self) -> None:
        spec = self.config.scenario
        builders: List[Tuple[str, int, Callable[[], PeerBehavior]]] = [
            ("honest", spec.honest,
             lambda: HonestBehavior(
                 vote_probability=spec.honest_vote_probability)),
            ("lazy", spec.lazy_voters, LazyVoterBehavior),
            ("freerider", spec.free_riders, FreeRiderBehavior),
            ("polluter", spec.polluters, PolluterBehavior),
            ("camouflaged", spec.camouflaged_polluters,
             CamouflagedPolluterBehavior),
            ("colluder", spec.colluders, ColluderBehavior),
            ("forger", spec.forgers, ForgerBehavior),
            ("whitewasher", spec.whitewashers, WhitewasherBehavior),
        ]
        for prefix, count, factory in builders:
            for index in range(count):
                peer_id = f"{prefix}-{index:04d}"
                self._add_peer(peer_id, factory())

        self._form_cliques(spec)
        self._assign_forgery_victims()

    def _add_peer(self, peer_id: str, behavior: PeerBehavior) -> Peer:
        peer = Peer(
            peer_id=peer_id,
            behavior=behavior,
            upload_capacity=self.rng.uniform(128, 512) * 1024.0,
            upload_slots=self.rng.randint(2, 4),
        )
        self.peers[peer_id] = peer
        self.workload.register_peer(peer_id)
        return peer

    def _form_cliques(self, spec: ScenarioSpec) -> None:
        colluder_ids = [pid for pid, peer in self.peers.items()
                        if isinstance(peer.behavior, ColluderBehavior)
                        and not isinstance(peer.behavior, WhitewasherBehavior)]
        size = max(spec.clique_size, 2)
        for start in range(0, len(colluder_ids), size):
            clique = colluder_ids[start:start + size]
            for peer_id in clique:
                behavior = self.peers[peer_id].behavior
                assert isinstance(behavior, ColluderBehavior)
                behavior.clique = list(clique)

    def _assign_forgery_victims(self) -> None:
        honest_ids = [pid for pid, peer in self.peers.items()
                      if isinstance(peer.behavior, HonestBehavior)]
        forger_ids = [pid for pid, peer in self.peers.items()
                      if isinstance(peer.behavior, ForgerBehavior)]
        if not honest_ids:
            return
        for forger_id in forger_ids:
            behavior = self.peers[forger_id].behavior
            assert isinstance(behavior, ForgerBehavior)
            behavior.victim_id = self.rng.choice(honest_ids)

    def _seed_initial_copies(self) -> None:
        """Seed each file with initial replicas; fakes prefer bad actors."""
        sharers = [pid for pid, peer in self.peers.items()
                   if peer.behavior.shares()]
        fake_friendly = [pid for pid, peer in self.peers.items()
                         if peer.behavior.wants_fake_copy()]
        for catalog_file in self.catalog:
            pool = (fake_friendly if catalog_file.is_fake and fake_friendly
                    else sharers or list(self.peers))
            k = min(self.INITIAL_REPLICAS, len(pool))
            for holder in self.rng.sample(pool, k):
                self.registry.add_copy(holder, catalog_file.file_id, 0.0)
                if catalog_file.is_fake:
                    self.metrics.record_fake_copy(catalog_file.file_id,
                                                  holder, 0.0)

    # ------------------------------------------------------------------ #
    # Run                                                                #
    # ------------------------------------------------------------------ #

    def run(self) -> SimulationMetrics:
        """Execute the configured run and return the collected metrics."""
        if self.durability is not None:
            self.durability.attach()
        self._schedule_joins()
        self.engine.schedule(self.workload.next_interarrival(),
                             self._on_request_arrival)
        self.engine.schedule(self.config.maintenance_interval_seconds,
                             self._on_maintenance)
        self.engine.run(until=self.config.duration_seconds)
        self._final_retention_flush()
        self.metrics.export(self.recorder)
        return self.metrics

    def _schedule_joins(self) -> None:
        churn = self.config.churn
        for peer in self.peers.values():
            if churn is not None:
                self.engine.schedule(churn.initial_join_delay(),
                                     self._join_callback(peer.peer_id, churn))
            else:
                peer.online = True
                peer.joined_at = 0.0
                self.mechanism.on_peer_online(peer.peer_id, 0.0)
                if self.recorder.enabled:
                    self.recorder.event("peer_join", t=0.0,
                                        peer=peer.peer_id, cls=peer.label)

    def _join_callback(self, peer_id: str, churn: ChurnModel):
        def _join(engine: EventEngine) -> None:
            peer = self.peers.get(peer_id)
            if peer is None:
                return
            peer.online = True
            peer.joined_at = engine.now
            self.mechanism.on_peer_online(peer_id, engine.now)
            if self.recorder.enabled:
                self.recorder.event("peer_join", peer=peer_id,
                                    cls=peer.label)
            engine.schedule(churn.session_duration(),
                            self._leave_callback(peer_id, churn))
        return _join

    def _leave_callback(self, peer_id: str, churn: ChurnModel):
        def _leave(engine: EventEngine) -> None:
            peer = self.peers.get(peer_id)
            if peer is None or not peer.online:
                return
            peer.online = False
            peer.queue.clear()
            self.mechanism.on_peer_offline(peer_id, engine.now)
            if self.recorder.enabled:
                self.recorder.event("peer_leave", peer=peer_id,
                                    cls=peer.label)
            engine.schedule(churn.offline_duration(),
                            self._join_callback(peer_id, churn))
        return _leave

    # ------------------------------------------------------------------ #
    # Request pipeline                                                   #
    # ------------------------------------------------------------------ #

    def _on_request_arrival(self, engine: EventEngine) -> None:
        # Schedule the next arrival *before* opening the span, so successive
        # requests start fresh traces instead of chaining to each other.
        engine.schedule(self.workload.next_interarrival(),
                        self._on_request_arrival)
        with self.recorder.request_span("sim.request"):
            self._handle_request_arrival(engine)

    def _handle_request_arrival(self, engine: EventEngine) -> None:
        online = sorted(pid for pid, peer in self.peers.items() if peer.online)
        picked = self.workload.pick_request(online, self.registry, engine.now)
        if picked is None:
            return
        requester_id, file_id = picked
        self.metrics.record_request()
        requester = self.peers[requester_id]
        if self.recorder.enabled:
            self.recorder.event("request", requester=requester_id,
                                file=file_id, cls=requester.label)

        if self.config.use_file_filtering and self._rejected_by_filter(
                requester_id, file_id):
            if self.registry.is_fake(file_id):
                self.metrics.record_blocked_fake(requester.label)
                if self.recorder.enabled:
                    self.recorder.event("blocked_fake",
                                        requester=requester_id,
                                        file=file_id, cls=requester.label)
            else:
                self.metrics.record_rejected_request(requester.label)
                if self.recorder.enabled:
                    self.recorder.event("request_rejected",
                                        requester=requester_id, file=file_id,
                                        cls=requester.label,
                                        reason="filtered")
            return

        uploader_id = self._choose_uploader(requester_id, file_id)
        if uploader_id is None:
            self.metrics.record_rejected_request(requester.label)
            if self.recorder.enabled:
                self.recorder.event("request_rejected",
                                    requester=requester_id, file=file_id,
                                    cls=requester.label,
                                    reason="no_uploader")
            return
        self._submit_request(uploader_id, requester_id, file_id)

    def _rejected_by_filter(self, requester_id: str, file_id: str) -> bool:
        score = self.mechanism.file_score(requester_id, file_id)
        self.metrics.record_judgement(blind=score is None)
        if score is None:
            return False  # optimistic when blind
        return score < self.FILE_SCORE_THRESHOLD

    def _choose_uploader(self, requester_id: str,
                         file_id: str) -> Optional[str]:
        """Pick a serving holder, preferring higher-reputation uploaders."""
        candidates = [
            holder for holder in sorted(self.registry.holders(file_id))
            if holder != requester_id
            and self.peers[holder].online
            and (self.peers[holder].behavior.shares()
                 or self.peers[holder].behavior.wants_fake_copy())
        ]
        if not candidates:
            return None
        scored = [
            (-1.0 if self.mechanism.is_distrusted(requester_id, holder)
             else self.mechanism.reputation(requester_id, holder), holder)
            for holder in candidates
        ]
        best = max(score for score, _ in scored)
        top = [holder for score, holder in scored if score >= best - 1e-12]
        return self.rng.choice(top)

    def _submit_request(self, uploader_id: str, requester_id: str,
                        file_id: str) -> None:
        uploader = self.peers[uploader_id]
        arrival = self.engine.now
        effective = arrival - self._queue_offset(uploader_id, requester_id)
        request = UploadRequest(requester_id=requester_id, file_id=file_id,
                                arrival_time=arrival, effective_time=effective)
        if uploader.has_free_slot:
            self._start_transfer(uploader, request)
        else:
            uploader.queue.append(request)
            uploader.queue.sort(key=lambda r: (r.effective_time, r.arrival_time,
                                               r.requester_id))

    #: Normalised reputation assumed for requesters the uploader has no
    #: information about (newcomers are neither rewarded nor floored).
    NEWCOMER_FACTOR = 0.5

    def _queue_offset(self, uploader_id: str, requester_id: str) -> float:
        if not self.config.use_service_differentiation:
            return 0.0
        normalized, known = self._service_factor(uploader_id, requester_id)
        if not known:
            return 0.0
        return normalized * self.MAX_QUEUE_OFFSET_SECONDS

    def _service_factor(self, observer_id: str,
                        target_id: str) -> Tuple[float, bool]:
        """(normalised reputation, observer-has-any-information).

        The target's reputation is scaled by the best reputation the
        observer assigns anyone.  When the observer trusts nobody at all the
        mechanism has nothing to differentiate on and ``known`` is False;
        an unknown target under an informed observer gets
        :data:`NEWCOMER_FACTOR`; an explicitly distrusted (blacklisted)
        target gets zero — the paper's "assigned with zero".
        """
        if self.mechanism.is_distrusted(observer_id, target_id):
            return 0.0, True
        best = self.mechanism.best_reputation(observer_id, self.peers)
        if best <= 0:
            return 0.0, False
        value = self.mechanism.reputation(observer_id, target_id)
        if value <= 0:
            return self.NEWCOMER_FACTOR, True
        return min(value / best, 1.0), True

    def _start_transfer(self, uploader: Peer, request: UploadRequest) -> None:
        requester = self.peers.get(request.requester_id)
        if requester is None or not requester.online:
            self._pump_queue(uploader)
            return
        if not self.registry.holds(uploader.peer_id, request.file_id):
            self._pump_queue(uploader)
            return
        uploader.active_uploads += 1
        size = self.registry.size(request.file_id)
        base_bandwidth = uploader.upload_capacity / uploader.upload_slots
        bandwidth = base_bandwidth
        if self.config.use_service_differentiation:
            normalized, known = self._service_factor(uploader.peer_id,
                                                     request.requester_id)
            if known:
                floor = self.MIN_BANDWIDTH_QUOTA
                quota = floor + normalized * (base_bandwidth - floor)
                bandwidth = min(base_bandwidth, max(quota, floor))
        duration = size / bandwidth
        wait = self.engine.now - request.arrival_time
        self.engine.schedule(duration, self._complete_callback(
            uploader.peer_id, request, wait, bandwidth))

    def _complete_callback(self, uploader_id: str, request: UploadRequest,
                           wait: float, bandwidth: float):
        def _complete(engine: EventEngine) -> None:
            self._on_transfer_complete(uploader_id, request, wait, bandwidth)
        return _complete

    def _on_transfer_complete(self, uploader_id: str, request: UploadRequest,
                              wait: float, bandwidth: float) -> None:
        with self.recorder.request_span("sim.transfer") as span:
            self._handle_transfer_complete(uploader_id, request, wait,
                                           bandwidth, span)

    def _handle_transfer_complete(self, uploader_id: str,
                                  request: UploadRequest, wait: float,
                                  bandwidth: float, span) -> None:
        uploader = self.peers.get(uploader_id)
        if uploader is not None:
            uploader.active_uploads = max(uploader.active_uploads - 1, 0)
            self._pump_queue(uploader)
        requester = self.peers.get(request.requester_id)
        if requester is None:
            return

        file_id = request.file_id
        now = self.engine.now
        size = self.registry.size(file_id)
        is_fake = self.registry.is_fake(file_id)
        # End-to-end request latency (queue wait + transfer) in sim time.
        span.add_cost(now - request.arrival_time)
        span.count("bytes", int(size))

        self.registry.add_copy(request.requester_id, file_id, now)
        if is_fake:
            self.metrics.record_fake_copy(file_id, request.requester_id, now)
        self.metrics.record_download(requester.label, is_fake, size, wait,
                                     bandwidth)
        if self.recorder.enabled:
            self.recorder.event("download", requester=request.requester_id,
                                uploader=uploader_id, file=file_id,
                                cls=requester.label, fake=is_fake,
                                wait=wait, bandwidth=bandwidth, size=size)
            up = self._peer_flows.setdefault(uploader_id, [0.0, 0.0, 0])
            up[0] += size
            if is_fake:
                up[2] += 1
            down = self._peer_flows.setdefault(request.requester_id,
                                               [0.0, 0.0, 0])
            down[1] += size
        if uploader is not None:
            self.metrics.record_bytes_served(uploader.label, size)

        self._download_sources[(request.requester_id, file_id)] = uploader_id
        self.mechanism.record_download(request.requester_id, uploader_id,
                                       file_id, size, now)

        # The requester judges the file only after consuming it.
        delay = self.rng.expovariate(
            1.0 / self.MEAN_CONSUMPTION_DELAY_SECONDS)
        requester_id = request.requester_id

        def _judge(engine: EventEngine) -> None:
            with self.recorder.request_span("sim.judge"):
                peer = self.peers.get(requester_id)
                if peer is not None and self.registry.holds(requester_id,
                                                            file_id):
                    peer.behavior.on_download_complete(self, peer, file_id,
                                                       uploader_id)

        self.engine.schedule(delay, _judge)

    def _pump_queue(self, uploader: Peer) -> None:
        while uploader.has_free_slot and uploader.queue and uploader.online:
            request = uploader.queue.pop(0)
            self._start_transfer(uploader, request)

    # ------------------------------------------------------------------ #
    # Behaviour helpers (called by PeerBehavior hooks)                   #
    # ------------------------------------------------------------------ #

    def peer_votes(self, peer: Peer, file_id: str, vote: float) -> None:
        self._votes[(peer.peer_id, file_id)] = vote
        self.mechanism.record_vote(peer.peer_id, file_id, vote,
                                   self.engine.now)
        source = self._download_sources.get((peer.peer_id, file_id))
        if source is not None:
            self.mechanism.record_upload_outcome(source, vote >= 0.5,
                                                 self.engine.now)

    def peer_ranks(self, peer: Peer, target_id: str, rating: float) -> None:
        if target_id != peer.peer_id and target_id in self.peers:
            self.mechanism.record_rank(peer.peer_id, target_id, rating)

    def peer_blacklists(self, peer: Peer, target_id: str) -> None:
        if target_id == peer.peer_id or target_id not in self.peers:
            return
        self._blacklist_counts[target_id] = (
            self._blacklist_counts.get(target_id, 0) + 1)
        self.mechanism.record_blacklist(peer.peer_id, target_id)

    def peer_deletes_file(self, peer: Peer, file_id: str,
                          fake_detected: bool = False) -> None:
        if not self.registry.holds(peer.peer_id, file_id):
            return
        now = self.engine.now
        self.registry.delete_copy(peer.peer_id, file_id, now)
        self.mechanism.record_deletion(peer.peer_id, file_id, now)
        if self.registry.is_fake(file_id):
            latency = self.metrics.record_fake_removal(file_id, peer.peer_id,
                                                       now)
            if self.recorder.enabled:
                self.recorder.event("fake_removal", peer=peer.peer_id,
                                    file=file_id, latency=latency)

    def known_vote(self, user_id: str, file_id: str) -> Optional[float]:
        """Vote ``user_id`` is known to have cast on ``file_id``, if any."""
        return self._votes.get((user_id, file_id))

    def blacklist_count(self, peer_id: str) -> int:
        return self._blacklist_counts.get(peer_id, 0)

    def is_online(self, peer_id: str) -> bool:
        peer = self.peers.get(peer_id)
        return peer is not None and peer.online

    def whitewash(self, peer: Peer) -> Peer:
        """Retire ``peer``'s identity and rejoin under a fresh one."""
        now = self.engine.now
        peer.online = False
        self.mechanism.on_peer_offline(peer.peer_id, now)
        self.registry.drop_peer(peer.peer_id, now)
        fresh_id = f"{peer.peer_id}-w{next(self._whitewash_counter)}"
        fresh = self._add_peer(fresh_id, type(peer.behavior)())
        fresh.previous_identities = peer.previous_identities + [peer.peer_id]
        fresh.online = True
        fresh.joined_at = now
        self.mechanism.on_peer_online(fresh_id, now)
        self._blacklist_counts.pop(fresh_id, None)
        if self.recorder.enabled:
            self.recorder.event("whitewash", retired=peer.peer_id,
                                fresh=fresh_id)
        return fresh

    # ------------------------------------------------------------------ #
    # Maintenance                                                        #
    # ------------------------------------------------------------------ #

    def _on_maintenance(self, engine: EventEngine) -> None:
        if self.recorder.enabled:
            self.recorder.event(
                "maintenance",
                online=sum(1 for p in self.peers.values() if p.online))
        with self.recorder.span("sim.maintenance"):
            self._flush_retention(engine.now)
            for peer_id in sorted(self.peers):
                peer = self.peers[peer_id]
                if peer.online:
                    peer.behavior.on_periodic(self, peer)
            self.mechanism.refresh()
            if self.recorder.enabled:
                self._emit_refresh_snapshot()
            if self.durability is not None:
                # Safe point: every journalled record's mutation has
                # applied, so a snapshot's last_seq is truthful here.
                self.durability.sync()
                self.durability.maybe_snapshot()
        engine.schedule(self.config.maintenance_interval_seconds,
                        self._on_maintenance)

    #: Normalised-reputation thresholds for the incentive service classes
    #: sampled into ``reputation_snapshot`` events (0 = starved .. 3 = full
    #: service); mirrors the Section 3.4 bandwidth-quota interpolation.
    SERVICE_CLASS_THRESHOLDS = (0.05, 0.25, 0.5)

    @classmethod
    def service_class(cls, normalized_reputation: float) -> int:
        """Map a [0, 1] normalised reputation to a service class 0..3."""
        level = 0
        for threshold in cls.SERVICE_CLASS_THRESHOLDS:
            if normalized_reputation >= threshold:
                level += 1
        return level

    def _emit_refresh_snapshot(self) -> None:
        """Per-peer timeline samples + strongest trust edges, one refresh.

        Emitted only under a live recorder, after :meth:`ReputationMechanism
        .refresh`, reading matrices through the mechanism's zero-copy view
        (:meth:`~repro.core.reputation_system.RefreshView`); the fault-free
        NULL_RECORDER path never gets here.
        """
        scores = self.mechanism.global_scores()
        max_score = max(scores.values()) if scores else 0.0
        for peer_id in sorted(self.peers):
            peer = self.peers[peer_id]
            score = scores.get(peer_id, 0.0)
            norm = score / max_score if max_score > 0 else 0.0
            flows = self._peer_flows.get(peer_id, (0.0, 0.0, 0))
            self.recorder.event(
                "reputation_snapshot", peer=peer_id, cls=peer.label,
                online=peer.online, score=score, norm=norm,
                service_class=self.service_class(norm),
                bytes_up=flows[0], bytes_down=flows[1],
                fakes_served=int(flows[2]))
        for src, dst, value in self.mechanism.trust_edges():
            self.recorder.event("trust_edge", src=src, dst=dst, value=value)

    def _flush_retention(self, now: float) -> None:
        for holding in self.registry.current_holdings():
            self.mechanism.record_retention(
                holding.peer_id, holding.file_id, holding.retention(now), now)

    def _final_retention_flush(self) -> None:
        self._flush_retention(self.engine.now)
        self.mechanism.refresh()
