"""The three seeded workloads and their input generators.

A run is a sequence of *passes*.  Pass ``k`` of a run with seed ``s`` uses
the derived seed ``s * 1000 + k`` and world ``k mod 3`` of the workload's
three fixed worlds (scenario seeds, traces or populations).  Worlds differ
a lot in cost -- refresh cost varies 2.6x across Maze trace seeds -- so
every run covers every world equally, and the pass seed draws what
happens in them: the evaluations and reads of the Maze replay, the stream
of sparse-multitrust, the closed loop after the simulation.  A pass's inputs
are generated before any of its timers start.  A pass then

1. sets up the world (timed: ``setup_s``),
2. runs the measured phase (timed: throughput, refresh and read latency),
   one *segment* per refresh interval,
3. checks its outputs (untimed): the incremental matrices must equal a
   forced full rebuild, and the pass digest must equal the recorded
   reference for its seed when one exists.

Every timing is scaled to a reference machine speed by a
:class:`perfbench.harness.SpeedGauge` probed between segments: set-up,
each refresh interval, and the simulation run are segments of their own.

Every workload drives the system through public entry points only: the
simulator scenarios, the :class:`MultiDimensionalReputationSystem` ingest
and query calls, :class:`DurabilityManager` and :class:`DHTBackedMechanism`.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, ContextManager, Dict, List, Optional,
                    Sequence, Tuple)

__all__ = ["PassResult", "Workload", "WORKLOADS", "pass_seed"]

#: Records (or stream events) ingested between two refreshes.
REFRESH_EVERY = 50
#: Reads after each refresh (enough for a stable p99 within one run).
READS_PER_REFRESH = 50
#: Share of Eq. 9 judgements in the read mix; the rest are Section 3.4
#: service levels.  Through the DHT a judgement costs ten times a service
#: level, and a 50/50 mix put the median read on the edge between them.
JUDGE_SHARE = 0.8

Op = Tuple[Any, ...]
Read = Tuple[str, str, str]
#: Wraps the measured phase of a pass (the traced run installs its probes).
Phase = Callable[[], ContextManager[Any]]


def pass_seed(seed: int, index: int) -> int:
    """The seed of pass ``index`` in a run seeded with ``seed``."""
    return seed * 1000 + index


@dataclass
class PassResult:
    """What one pass measured and produced."""

    setup_s: List[float]
    #: Scaled seconds behind ``completed`` (the throughput denominator).
    measured_s: float
    #: Unscaled wall seconds behind ``completed``.
    wall_measured_s: float
    #: Unscaled wall seconds of the whole measured phase, including any
    #: closed loop after a simulation, without the speed probes (the
    #: tracing-overhead denominator).
    phase_s: float
    completed: int
    refresh_ms: List[float]
    query_us: List[float]
    attempted: int
    digest: str
    #: Incremental TM/RM equal a forced full rebuild of the same stores.
    rebuild_matches: bool
    #: Counts read off the program after the pass (tm.nnz, wal.bytes, ...).
    counts: Dict[str, float] = field(default_factory=dict)


def _digest(payload: Dict[str, Any]) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _full_rebuild_matches(system: Any) -> bool:
    """The repository's hard bar: incremental state == full rebuild."""
    incremental = system.pipeline.checksums()
    system.pipeline.refresh(force_full=True)
    return system.pipeline.checksums() == incremental


def _matrix_counts(system: Any) -> Dict[str, float]:
    return {"tm.nnz": float(system.pipeline.trust.entry_count()),
            "rm.nnz": float(system.pipeline.reputation.entry_count())}


def _read_mix(rng: random.Random, observers: Sequence[str],
              files: Sequence[str], count: int) -> List[Read]:
    """``count`` seeded reads: judgements and service levels."""
    reads: List[Read] = []
    for _ in range(count):
        observer = observers[rng.randrange(len(observers))]
        if rng.random() < JUDGE_SHARE:
            reads.append(("judge", observer, files[rng.randrange(len(files))]))
        else:
            requester = observers[rng.randrange(len(observers))]
            reads.append(("service", observer, requester))
    return reads


def _timed_reads(system: Any, reads: Sequence[Read], outputs: List[Any],
                 judge: Optional[Callable[[str, str], Any]] = None
                 ) -> List[float]:
    """Run ``reads`` one at a time; return their wall latencies in
    microseconds."""
    clock = time.perf_counter
    samples: List[float] = []
    for kind, observer, target in reads:
        started = clock()
        if kind == "judge":
            value = (judge(observer, target) if judge is not None
                     else system.judge_file(observer, target).reputation)
        else:
            value = system.service_level(observer, target).bandwidth_quota
        samples.append((clock() - started) * 1e6)
        outputs.append(value)
    return samples


@dataclass
class _Segments:
    """Scaled samples of a measured phase, gathered segment by segment."""

    speed: Any
    refresh_ms: List[float] = field(default_factory=list)
    query_us: List[float] = field(default_factory=list)
    measured_s: float = 0.0
    wall_s: float = 0.0

    def close(self, wall_s: float, refresh_ms: float,
              query_us: Sequence[float]) -> None:
        """End a segment of ``wall_s`` seconds and scale its samples."""
        scale = self.speed.segment()
        self.wall_s += wall_s
        self.measured_s += wall_s * scale
        self.refresh_ms.append(refresh_ms * scale)
        self.query_us.extend(sample * scale for sample in query_us)


def _apply(system: Any, op: Op) -> None:
    kind = op[0]
    if kind == "download":
        system.record_download(op[1], op[2], op[3], op[4], op[5])
    elif kind == "vote":
        system.record_vote(op[1], op[2], op[3], op[4])
    elif kind == "retention":
        system.record_retention(op[1], op[2], op[3], op[4])
    elif kind == "rank":
        system.record_rank(op[1], op[2], op[3])
    else:
        raise ValueError(f"unknown op {kind!r}")


def _refresh(system: Any) -> None:
    system.recompute()
    system.refresh_view()


# ---------------------------------------------------------------------- #
# Replay workloads: maze-replay and sparse-multitrust                    #
# ---------------------------------------------------------------------- #

@dataclass
class StreamInputs:
    """A bulk-loaded population plus a chunked stream with reads."""

    bulk: List[Op]
    #: One list of ops per refresh interval.
    chunks: List[List[Op]]
    #: Records (maze-replay) or events (sparse-multitrust) per chunk.
    chunk_sizes: List[int]
    reads: List[List[Read]]


def _run_stream(inputs: StreamInputs, config: Any, workdir: Optional[Path],
                phase: Phase) -> PassResult:
    """Setup (bulk-load + first full refresh), then the measured stream.

    With ``workdir`` a WAL (batch policy) is attached after the bulk load
    and synced once per refresh.
    """
    from repro.core import MultiDimensionalReputationSystem
    from repro.core.durability.journal import DurabilityManager
    from perfbench.harness import SpeedGauge

    clock = time.perf_counter
    gc.collect()
    speed = SpeedGauge()
    started = clock()
    system = MultiDimensionalReputationSystem(config, auto_refresh=False)
    for op in inputs.bulk:
        _apply(system, op)
    _refresh(system)
    durability = None
    if workdir is not None:
        durability = DurabilityManager(system, workdir, fsync="batch")
        durability.attach()
    setup_s = clock() - started
    setup_s *= speed.segment()

    segments = _Segments(speed)
    outputs: List[Any] = []
    gc.collect()
    with phase():
        for chunk, reads in zip(inputs.chunks, inputs.reads):
            chunk_started = clock()
            for op in chunk:
                _apply(system, op)
            refresh_started = clock()
            _refresh(system)
            refresh_s = clock() - refresh_started
            if durability is not None:
                durability.sync()
            query_us = _timed_reads(system, reads, outputs)
            segments.close(clock() - chunk_started, refresh_s * 1e3, query_us)

    counts = _matrix_counts(system)
    if durability is not None:
        durability.close()
        counts["wal.bytes"] = float(durability.wal_path.stat().st_size)
    checksums = system.pipeline.checksums()
    rebuild_matches = _full_rebuild_matches(system)
    ops = len(inputs.bulk) + sum(len(chunk) for chunk in inputs.chunks)
    return PassResult(
        setup_s=[setup_s], measured_s=segments.measured_s,
        wall_measured_s=segments.wall_s, phase_s=segments.wall_s,
        completed=sum(inputs.chunk_sizes), refresh_ms=segments.refresh_ms,
        query_us=segments.query_us,
        attempted=ops + len(inputs.chunks) + len(segments.query_us),
        digest=_digest({"checksums": checksums, "reads": outputs}),
        rebuild_matches=rebuild_matches, counts=counts)


#: Seeds of the fixed worlds: scenario, trace and population seeds.
#: Refresh cost varies 2.6x across trace seeds, with how many popular
#: titles are alive in a trace's last quarter.
WORLD_SEEDS = (1, 2, 3)


def maze_traces(tiny: bool = False) -> List[List[Any]]:
    """The Maze-like traces: Zipf 0.8 popularity, log-normal activity."""
    from repro.traces.generator import MazeTraceGenerator, TraceParameters

    users, files, actions = (30, 60, 600) if tiny else (250, 3000, 7200)
    return [list(MazeTraceGenerator(TraceParameters(
        num_users=users, num_files=files, num_actions=actions,
        trace_days=30.0, seed=world)).generate().trace)
        for world in WORLD_SEEDS]


def maze_inputs(records: Sequence[Any], seed: int) -> StreamInputs:
    """The trace as ops: the first 75% bulk-loaded, the rest replayed.

    Each record becomes a download plus a vote (40%) or a retention update
    (60%), and with 5% probability a rank of the uploader.  Fakes draw low
    votes and short retention, real files high votes and long retention.
    """
    rng = random.Random(seed + 1)
    per_record: List[List[Op]] = []
    for record in records:
        ops: List[Op] = [("download", record.downloader_id,
                          record.uploader_id, record.content_hash,
                          record.size_bytes, record.timestamp)]
        if rng.random() < 0.4:
            vote = (rng.uniform(0.0, 0.2) if record.is_fake
                    else rng.uniform(0.6, 1.0))
            ops.append(("vote", record.downloader_id, record.content_hash,
                        vote, record.timestamp))
        else:
            retention = (rng.uniform(0.0, 3600.0) if record.is_fake
                         else rng.uniform(86400.0, 20 * 86400.0))
            ops.append(("retention", record.downloader_id,
                        record.content_hash, retention, record.timestamp))
        if rng.random() < 0.05:
            ops.append(("rank", record.downloader_id, record.uploader_id,
                        0.1 if record.is_fake else 0.9))
        per_record.append(ops)

    cut = len(per_record) * 3 // 4
    bulk = [op for ops in per_record[:cut] for op in ops]
    tail = per_record[cut:]
    observers = sorted({r.downloader_id for r in records}
                       | {r.uploader_id for r in records})
    file_ids = sorted({r.content_hash for r in records})
    chunks: List[List[Op]] = []
    sizes: List[int] = []
    reads: List[List[Read]] = []
    for start in range(0, len(tail), REFRESH_EVERY):
        block = tail[start:start + REFRESH_EVERY]
        chunks.append([op for ops in block for op in ops])
        sizes.append(len(block))
        reads.append(_read_mix(rng, observers, file_ids,
                               READS_PER_REFRESH))
    return StreamInputs(bulk=bulk, chunks=chunks, chunk_sizes=sizes,
                        reads=reads)


@dataclass
class Population:
    """A bulk-loaded population of uniform-pick peers."""

    users: List[str]
    files: List[str]
    bulk: List[Op]


def sparse_populations(tiny: bool = False) -> List[Population]:
    """Uniform-pick populations: 8 votes, 4 downloads, 2 ranks per peer."""
    peers = 40 if tiny else 400
    populations: List[Population] = []
    for world in WORLD_SEEDS:
        rng = random.Random(world)
        users = [f"u{i:05d}" for i in range(peers)]
        files = [f"f{i:05d}" for i in range(peers * 2)]
        bulk: List[Op] = []
        for user in users:
            for _ in range(8):
                bulk.append(("vote", user, files[rng.randrange(len(files))],
                             rng.random(), 0.0))
            for _ in range(4):
                uploader = users[rng.randrange(peers)]
                if uploader == user:
                    continue
                file_id = files[rng.randrange(len(files))]
                bulk.append(("download", user, uploader, file_id,
                             rng.uniform(1e5, 1e7), 0.0))
                bulk.append(("vote", user, file_id, rng.random(), 0.0))
            for _ in range(2):
                ratee = users[rng.randrange(peers)]
                if ratee != user:
                    bulk.append(("rank", user, ratee, rng.random()))
        populations.append(Population(users, files, bulk))
    return populations


def sparse_inputs(population: Population, seed: int,
                  tiny: bool = False) -> StreamInputs:
    """A mixed stream over ``population``: 60% votes, 30% downloads and
    10% ranks, drawn from the pass seed."""
    chunk_count = 12 if tiny else 20
    rng = random.Random(seed)
    users, files = population.users, population.files
    peers = len(users)
    chunks: List[List[Op]] = []
    reads: List[List[Read]] = []
    for _ in range(chunk_count):
        chunk: List[Op] = []
        while len(chunk) < REFRESH_EVERY:
            user = users[rng.randrange(peers)]
            other = users[rng.randrange(peers)]
            file_id = files[rng.randrange(len(files))]
            draw = rng.random()
            if draw < 0.6:
                chunk.append(("vote", user, file_id, rng.random(), 1.0))
            elif draw < 0.9:
                if other != user:
                    chunk.append(("download", user, other, file_id,
                                  rng.uniform(1e5, 1e7), 1.0))
            elif other != user:
                chunk.append(("rank", user, other, rng.random()))
        chunks.append(chunk)
        reads.append(_read_mix(rng, users, files, READS_PER_REFRESH))
    return StreamInputs(bulk=population.bulk, chunks=chunks,
                        chunk_sizes=[len(chunk) for chunk in chunks],
                        reads=reads)


# ---------------------------------------------------------------------- #
# Simulation workload: sim-dht                                           #
# ---------------------------------------------------------------------- #

#: Rounds of the post-run closed loop (writes, refresh, reads) per pass.
#: DHT judgements vary with the records each file has, so their
#: percentiles need many reads to settle.
LOOP_ROUNDS = 60
#: Writes per loop round.  Few writes keep the loop's refreshes from
#: outweighing the simulation's own work.
LOOP_WRITES = 4
#: World constructions per pass (a few ms each); setup_s is their median.
SIM_SETUPS = 15
#: Simulated seconds of a pass: half of the scenario's day keeps a pass
#: near 3 s, so a run holds several cycles of short speed segments.
SIM_SECONDS = 12 * 3600.0


@dataclass
class SimInputs:
    """A scenario plus the seeded post-run loop, as index draws."""

    #: Builds a fresh scenario config: configs carry stateful churn RNGs,
    #: so every simulation needs its own.
    make_config: Callable[[], Any]
    #: Per round: (kind, peer draw, file draw, value draw).
    writes: List[List[Tuple[str, float, float, float]]]
    #: Per round: (kind, observer draw, target draw).
    reads: List[List[Tuple[str, float, float]]]


def sim_inputs(world: int, seed: int, tiny: bool = False) -> SimInputs:
    """The ``chaos_storm`` scenario ``world`` over ``SIM_SECONDS``; the
    pass seed draws the loop.

    ``tiny`` shortens the scenario to two simulated hours.
    """
    from repro.simulator.scenarios import chaos_storm

    def make_config() -> Any:
        return dataclasses.replace(
            chaos_storm(world),
            duration_seconds=2 * 3600.0 if tiny else SIM_SECONDS)

    rng = random.Random(seed + 7)
    rounds = 20 if tiny else LOOP_ROUNDS
    writes = [[("vote" if rng.random() < 0.5 else "retention",
                rng.random(), rng.random(), rng.random())
               for _ in range(LOOP_WRITES)] for _ in range(rounds)]
    reads = [[("judge" if rng.random() < JUDGE_SHARE else "service",
               rng.random(), rng.random())
              for _ in range(READS_PER_REFRESH)] for _ in range(rounds)]
    return SimInputs(make_config=make_config, writes=writes, reads=reads)


def _pick(ids: Sequence[str], draw: float) -> str:
    return ids[min(int(draw * len(ids)), len(ids) - 1)]


def _closed_loop(simulation: Any, inputs: SimInputs, segments: _Segments
                 ) -> List[Any]:
    """The final world serves rounds of writes, a refresh, then reads.

    Writes go through the mechanism, so they are published over the DHT;
    judgements retrieve through it.  Each round is one segment.
    """
    clock = time.perf_counter
    mechanism = simulation.mechanism
    peers = sorted(simulation.peers)
    # Peers request files someone holds, as the simulation's workload does.
    files = sorted(f.file_id for f in simulation.catalog
                   if simulation.registry.holders(f.file_id))
    now = simulation.engine.now
    outputs: List[Any] = []
    for writes, reads in zip(inputs.writes, inputs.reads):
        round_started = clock()
        for kind, peer_draw, file_draw, value in writes:
            peer, file_id = _pick(peers, peer_draw), _pick(files, file_draw)
            if kind == "vote":
                mechanism.record_vote(peer, file_id, value, now)
            else:
                mechanism.record_retention(peer, file_id, value * 86400.0,
                                           now)
        refresh_started = clock()
        _refresh(mechanism.system)
        refresh_s = clock() - refresh_started
        resolved = [(kind, _pick(peers, a),
                     _pick(files if kind == "judge" else peers, b))
                    for kind, a, b in reads]
        query_us = _timed_reads(mechanism.system, resolved, outputs,
                                judge=mechanism.file_score)
        segments.close(clock() - round_started, refresh_s * 1e3, query_us)
    return outputs


def _dht_mechanism(config: Any) -> Any:
    """The DHT deployment at the paper's defaults (n = 1, retention
    saturation = duration / 3, as ``repro simulate`` sets it), under a 5%
    message-drop plan seeded like the scenario: drops change the whole
    trajectory, so they belong to the world."""
    from repro.core import ReputationConfig
    from repro.dht.deployment import DHTBackedMechanism
    from repro.dht.faults import FaultPlan

    return DHTBackedMechanism(
        ReputationConfig(
            retention_saturation_seconds=config.duration_seconds / 3),
        faults=FaultPlan(drop_probability=0.05, seed=config.seed))


def _sim_pass(inputs: SimInputs, _work_root: Path,
              phase: Phase) -> PassResult:
    from repro.simulator.simulation import FileSharingSimulation
    from perfbench.harness import SpeedGauge

    clock = time.perf_counter
    setups: List[float] = []
    gc.collect()
    speed = SpeedGauge()
    for _ in range(SIM_SETUPS):
        started = clock()
        config = inputs.make_config()
        mechanism = _dht_mechanism(config)
        simulation = FileSharingSimulation(config, mechanism)
        setups.append(clock() - started)
    setup_scale = speed.segment()
    system = mechanism.system
    overlay = mechanism.overlay

    gc.collect()
    loop = _Segments(speed)
    with phase():
        run_started = clock()
        metrics = simulation.run()
        run_s = clock() - run_started
        run_scale = speed.segment()
        outputs = _closed_loop(simulation, inputs, loop)

    events = simulation.engine.events_processed
    summary: Dict[str, Any] = {
        "classes": {label: [s.real_downloads, s.fake_downloads,
                            s.fakes_blocked, s.requests_rejected,
                            s.bytes_received, s.bytes_served]
                    for label, s in sorted(metrics.per_class.items())},
        "requests": metrics.total_requests,
        "judgements": [metrics.blind_judgements,
                       metrics.informed_judgements],
        "fake_fraction": metrics.overall_fake_fraction,
        "events": events,
        "tally": overlay.tally.snapshot(),
        "checksums": system.pipeline.checksums(),
        "reads": outputs,
    }
    counts = _matrix_counts(system)
    counts.update({
        "engine.events": float(events),
        "dht.messages": float(overlay.tally.total_messages()),
        "dht.retries": float(overlay.tally.retries),
        "dht.retrievals": float(overlay.retrievals_total),
        "dht.retrievals_complete": float(overlay.retrievals_complete),
    })
    rebuild_matches = _full_rebuild_matches(system)
    return PassResult(
        setup_s=[setup * setup_scale for setup in setups],
        measured_s=run_s * run_scale, wall_measured_s=run_s,
        phase_s=run_s + loop.wall_s, completed=events,
        refresh_ms=loop.refresh_ms, query_us=loop.query_us,
        attempted=events + len(loop.refresh_ms) * (LOOP_WRITES + 1)
        + len(loop.query_us),
        digest=_digest(summary), rebuild_matches=rebuild_matches,
        counts=counts)


# ---------------------------------------------------------------------- #
# Registry                                                               #
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class Workload:
    """A named workload: input generator plus pass runner."""

    name: str
    why: str
    #: Builds the fixed worlds; pass ``k`` runs in world ``k mod W``.
    make_worlds: Callable[[bool], List[Any]]
    #: ``(world, pass seed, tiny) -> inputs``.
    make_inputs: Callable[[Any, int, bool], Any]
    run_pass: Callable[[Any, Path, Phase], PassResult]
    #: What ``completed`` counts, for the human-readable summary.
    unit: str


def _maze_pass(inputs: StreamInputs, work_root: Path,
               phase: Phase) -> PassResult:
    from repro.core import ReputationConfig

    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="wal-", dir=work_root))
    try:
        return _run_stream(inputs, ReputationConfig(), workdir, phase)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _sparse_pass(inputs: StreamInputs, _work_root: Path,
                 phase: Phase) -> PassResult:
    from repro.core import ReputationConfig

    return _run_stream(inputs, ReputationConfig(multitrust_steps=3,
                                                matmul_backend="auto"),
                       None, phase)


def _scenario_worlds(_tiny: bool) -> List[Any]:
    return list(WORLD_SEEDS)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("maze-replay",
                 "Maze-like Zipf trace replayed with a WAL: most file-trust "
                 "rows re-derive per refresh, so the pipeline dominates",
                 maze_traces,
                 lambda records, seed, _tiny: maze_inputs(records, seed),
                 _maze_pass, "records"),
        Workload("sparse-multitrust",
                 "400 sparse peers with RM = TM^3 on the csr backend: the "
                 "matrix backend dominates",
                 sparse_populations, sparse_inputs, _sparse_pass, "events"),
        Workload("sim-dht",
                 "Half a day of the chaos_storm scenario over the DHT with "
                 "5% drops: publication, retrieval and repair dominate",
                 _scenario_worlds, sim_inputs, _sim_pass,
                 "engine events"),
    )
}
