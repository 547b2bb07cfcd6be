"""One bench harness: the ``BENCH_<section>.json`` trajectory points.

``repro bench SECTION`` runs one section and writes one stamped snapshot:

* ``obs``      — what observability costs a simulate run: bare
  (:data:`~repro.obs.recorder.NULL_RECORDER`), instrumented, every span
  kept and 1-in-8 head-sampled spans, plus one chaos cell.  Every mode
  must reach the same outcomes and publish the same TM/RM.
* ``wal``      — what durability costs the same kind of run: no journal,
  buffered (``fsync="none"``), batch fsync and fsync-always.  The
  durability layer never touches an RNG, so every mode must reach the
  baseline outcomes.
* ``trace``    — binary columnar vs JSONL write and scan throughput over
  one synthetic stream; the two scans must aggregate identically and a
  binary -> JSONL round trip must be byte-identical.
* ``pipeline`` — forced full rebuild vs single-event refresh per
  population size, two matmul backend pairs, and optional scaling tiers;
  every incremental refresh must equal a forced full rebuild.

The harness owns what the sections share:

* **Stamp.**  Seed, a hash of the workload configuration, and the git sha
  and dirty flag of the checkout this package was imported from.
* **Timing.**  A section's modes alternate inside each of :data:`PAIRS`
  rounds.  Every ratio is the median of its per-round ratios, reported
  with their interquartile range; every mode records its min and median
  seconds.  A single sample is not a measurement on a shared host.
* **Checks.**  Identity flags sit under ``"checks"``; any false flag fails
  the run, whatever the gates say.
* **Gates.**  ``PATH<=X`` / ``PATH>=X`` against a dotted path into the
  snapshot (list entries by index).  A path that does not name a number is
  an error, never a pass.

Simulator and core imports are deferred into the functions: those modules
import :mod:`repro.obs.recorder`, and a module-level import here would
complete that cycle.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from .events import read_events
from .recorder import NULL_RECORDER, NullRecorder, Recorder
from .stats import mean, percentile
from .traceio import (DEFAULT_CHUNK_EVENTS, JsonlTraceWriter, TraceReader,
                      TraceWriter, canonical_line)

__all__ = ["SECTIONS", "PAIRS", "Gate", "parse_gate", "resolve",
           "records", "config_hash", "git_sha",
           "git_dirty", "run_stamp", "write_snapshot", "append_history",
           "alternate", "timing", "ratio", "synthetic_events",
           "collect_obs", "collect_wal", "collect_trace",
           "collect_pipeline"]

#: Bump when the snapshot layout changes incompatibly.
SNAPSHOT_SCHEMA = 2

#: Rounds every section alternates its modes over (at least 5, so a
#: median and quartiles exist).
PAIRS = 5

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


# ---------------------------------------------------------------------- #
# Stamp, snapshot files                                                  #
# ---------------------------------------------------------------------- #

def config_hash(config: Dict[str, object]) -> str:
    """Short stable hash of a configuration mapping."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _git(args: Sequence[str], cwd: Optional[str]) -> Optional[str]:
    """``git ARGS`` stdout in ``cwd`` (this package's directory by
    default, so the answer does not depend on the process cwd)."""
    try:
        out = subprocess.run(["git", *args], cwd=cwd or _PACKAGE_DIR,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def git_sha(cwd: Optional[str] = None) -> str:
    """The checkout's commit sha, or ``"unknown"`` outside a git checkout."""
    sha = (_git(["rev-parse", "HEAD"], cwd) or "").strip()
    return sha or "unknown"


def git_dirty(cwd: Optional[str] = None) -> bool:
    """True when the checkout has uncommitted or untracked changes: the
    snapshot then measures code that ``git_sha`` does not name."""
    return bool((_git(["status", "--porcelain"], cwd) or "").strip())


def run_stamp(seed: int, config: Dict[str, object]) -> Dict[str, object]:
    """The provenance stamp every snapshot carries."""
    return {
        "schema": SNAPSHOT_SCHEMA,
        "seed": seed,
        "config_hash": config_hash(config),
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
    }


def write_snapshot(path: str, snapshot: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")


def append_history(path: str, snapshot: Dict[str, object]) -> None:
    """Append one compact snapshot line to a JSONL trajectory file, so a
    ratio can be regressed against a sequence of commits, not one point."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(snapshot, sort_keys=True,
                                separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------- #
# Timing                                                                 #
# ---------------------------------------------------------------------- #

def alternate(modes: Dict[str, Callable[[], float]],
              pairs: int = PAIRS) -> Dict[str, List[float]]:
    """Run every mode once per round, in order, for ``pairs`` rounds.

    Each mode times its own measured region and returns seconds, so setup
    and result checks stay outside the clock.  Alternating puts a
    mode and its baseline next to each other in time: host speed drift
    moves both sides of a per-round ratio together.
    """
    seconds: Dict[str, List[float]] = {name: [] for name in modes}
    for _ in range(pairs):
        for name, run in modes.items():
            seconds[name].append(run())
    return seconds


def timing(seconds: Sequence[float],
           events: Optional[int] = None) -> Dict[str, float]:
    """One mode's record: run count, min and median seconds, and
    ``events_per_s`` at the median when the work is a known event count."""
    record: Dict[str, float] = {
        "runs": len(seconds),
        "min_seconds": min(seconds),
        "median_seconds": percentile(seconds, 50),
    }
    if events is not None:
        record["events_per_s"] = events / record["median_seconds"]
    return record


def ratio(numerator: Sequence[float],
          denominator: Sequence[float]) -> Dict[str, float]:
    """Median and IQR of the per-round ``numerator / denominator`` ratios."""
    ratios = [a / b for a, b in zip(numerator, denominator)]
    return {"median": percentile(ratios, 50),
            "iqr": percentile(ratios, 75) - percentile(ratios, 25),
            "pairs": len(ratios)}


# ---------------------------------------------------------------------- #
# Checks and gates                                                       #
# ---------------------------------------------------------------------- #

_GATE_RE = re.compile(r"^\s*([A-Za-z0-9_.]+)\s*(<=|>=)\s*(\S+)\s*$")


class Gate(NamedTuple):
    """``path op bound``: the number at ``path`` must satisfy ``op``."""

    path: str
    op: str
    bound: float

    def holds(self, value: float) -> bool:
        return value <= self.bound if self.op == "<=" else value >= self.bound

    def __str__(self) -> str:
        return f"{self.path}{self.op}{self.bound:g}"


def parse_gate(text: str) -> Gate:
    """Parse ``PATH<=X`` or ``PATH>=X``; raises ``ValueError`` otherwise."""
    match = _GATE_RE.match(text)
    if match is None:
        raise ValueError(f"malformed gate {text!r}: expected PATH<=X or "
                         f"PATH>=X")
    path, op, bound_text = match.groups()
    try:
        bound = float(bound_text)
    except ValueError:
        raise ValueError(f"malformed gate {text!r}: bound {bound_text!r} "
                         f"is not a number") from None
    if not math.isfinite(bound):
        raise ValueError(f"malformed gate {text!r}: bound must be finite")
    return Gate(path, op, bound)


def resolve(snapshot: Dict[str, Any], path: str) -> float:
    """The number at a dotted ``path``; ``LookupError`` if there is none."""
    node: Any = snapshot
    for part in path.split("."):
        if isinstance(node, dict) and part in node:
            node = node[part]
        elif (isinstance(node, list) and part.isdigit()
              and int(part) < len(node)):
            node = node[int(part)]
        else:
            raise LookupError(f"gate path {path!r} is not in the snapshot")
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise LookupError(f"gate path {path!r} names a "
                          f"{type(node).__name__}, not a number")
    return float(node)


def records(node: Any, path: str = "") -> Iterator[Tuple[str, Dict]]:
    """Every timing record (has ``median_seconds``) and ratio record (has
    ``iqr``) in a snapshot, with its dotted path, in document order."""
    if isinstance(node, dict):
        if "median_seconds" in node or "iqr" in node:
            yield path, node
            return
        items: Any = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from records(child, f"{path}.{key}" if path else str(key))


# ---------------------------------------------------------------------- #
# Simulation workloads (obs, wal)                                        #
# ---------------------------------------------------------------------- #

#: The obs simulate workload and its chaos cell.
OBS_SIM = dict(honest=14, free_riders=3, polluters=3, catalog=60,
               fake_ratio=0.25, days=0.75, request_rate=0.02)
OBS_CHAOS = dict(peers=16, files=24, rounds=12, loss_rate=0.1,
                 churn_rate=0.3, replication=3)
#: RM = TM^n of the untimed observed == unobserved check at n > 1.
OBS_IDENTITY_STEPS = 3

#: The wal simulate workload.
WAL_SIM = dict(honest=10, free_riders=3, polluters=3, catalog=60,
               fake_ratio=0.25, days=0.75, request_rate=0.02)
_WAL_FSYNC = {"buffered": "none", "batch": "batch", "always": "always"}


def _simulate(shape: Dict[str, Any], seed: int,
              recorder: NullRecorder = NULL_RECORDER,
              wal_dir: Optional[str] = None, fsync: str = "none"
              ) -> Tuple[float, Dict[str, Any], int]:
    """Build and run one simulate workload; only ``run()`` is timed.

    Returns seconds, the outcome every mode must reproduce, and the
    number of WAL records written (0 without a journal).
    """
    from ..baselines import MultiDimensionalMechanism
    from ..core import ReputationConfig
    from ..core.durability import DurabilityManager
    from ..simulator import (FileSharingSimulation, ScenarioSpec,
                             SimulationConfig)

    duration = shape["days"] * 24 * 3600.0
    config = SimulationConfig(
        scenario=ScenarioSpec(honest=shape["honest"],
                              free_riders=shape["free_riders"],
                              polluters=shape["polluters"]),
        duration_seconds=duration,
        num_files=shape["catalog"],
        fake_ratio=shape["fake_ratio"],
        request_rate=shape["request_rate"],
        seed=seed)
    mechanism = MultiDimensionalMechanism(ReputationConfig(
        retention_saturation_seconds=duration / 3,
        multitrust_steps=shape.get("multitrust_steps", 1)))
    manager = None
    if wal_dir is not None:
        # No mid-run snapshots (only the baseline generation is written),
        # so the journalled modes differ only in append/fsync behaviour.
        manager = DurabilityManager(mechanism.system, wal_dir, fsync=fsync)
    simulation = FileSharingSimulation(config, mechanism, recorder=recorder,
                                       durability=manager)
    started = time.perf_counter()
    metrics = simulation.run()
    seconds = time.perf_counter() - started
    wal_records = 0
    if manager is not None:
        wal_records = manager.last_seq
        manager.close(final_snapshot=True)
    outcome = {
        "total_requests": metrics.total_requests,
        "overall_fake_fraction": metrics.overall_fake_fraction,
        "outstanding_fake_copies": metrics.outstanding_fake_copies,
        "engine_events": simulation.engine.events_processed,
        "checksums": mechanism.system.pipeline.checksums(),
    }
    return seconds, outcome, wal_records


def collect_obs(seed: int = 42) -> Dict[str, object]:
    """The ``obs`` section: observability overhead on one simulate run."""
    from ..simulator import ChaosConfig, run_chaos_point

    recorders: Dict[str, Callable[[], NullRecorder]] = {
        "null": lambda: NULL_RECORDER,
        "instrumented": Recorder,
        # Every request traced, then 1-in-8 head sampling: the two span
        # operating points the CI gates.
        "spans": lambda: Recorder(span_seed=seed, span_sample=1),
        "sampled": lambda: Recorder(span_seed=seed, span_sample=8),
    }
    last: Dict[str, Tuple[Any, Any]] = {}

    def simulate(name: str) -> Callable[[], float]:
        def run() -> float:
            recorder = recorders[name]()
            seconds, outcome, _ = _simulate(OBS_SIM, seed, recorder)
            last[name] = (outcome, recorder)
            return seconds
        return run

    def chaos() -> float:
        recorder = Recorder()
        started = time.perf_counter()
        result = run_chaos_point(ChaosConfig(seed=seed, **OBS_CHAOS),
                                 recorder=recorder)
        seconds = time.perf_counter() - started
        last["chaos"] = (result, recorder)
        return seconds

    modes = {name: simulate(name) for name in recorders}
    modes["chaos"] = chaos
    seconds = alternate(modes)

    outcomes = {name: last[name][0] for name in recorders}
    instrumented, recorder = last["instrumented"]
    chaos_result, chaos_recorder = last["chaos"]

    def span_events(name: str) -> int:
        return last[name][1].trace.kinds().get("span", 0)

    # Untimed: at n > 1 a power runs, and observing it must not move RM.
    powered = dict(OBS_SIM, multitrust_steps=OBS_IDENTITY_STEPS)
    _, unobserved_n, _ = _simulate(powered, seed, NULL_RECORDER)
    _, observed_n, _ = _simulate(powered, seed,
                                 Recorder(span_seed=seed, span_sample=1))

    return {
        **run_stamp(seed, {"simulate": OBS_SIM, "chaos": OBS_CHAOS,
                           "identity_steps": OBS_IDENTITY_STEPS}),
        "timings": {name: timing(runs) for name, runs in seconds.items()},
        "ratios": {
            "instrumentation_overhead": ratio(seconds["instrumented"],
                                              seconds["null"]),
            "span_overhead": ratio(seconds["spans"],
                                   seconds["instrumented"]),
            "span_sampled_overhead": ratio(seconds["sampled"],
                                           seconds["instrumented"]),
        },
        "profiler": recorder.profiler.snapshot(),
        "simulate": {
            **instrumented,
            "events_recorded": len(recorder.trace),
            "instruments": len(recorder.registry),
        },
        "spans": {"span_events_full": span_events("spans"),
                  "span_events_sampled": span_events("sampled")},
        "chaos": {
            "availability": chaos_result.availability,
            "mean_hops": chaos_result.mean_hops,
            "retrievals": chaos_result.retrievals,
            "retrievals_incomplete": chaos_result.retrievals_incomplete,
            "drops": chaos_result.drops,
            "retries": chaos_result.retries,
            "repairs": chaos_result.repairs,
            "events_recorded": len(chaos_recorder.trace),
        },
        "checks": {
            "matches_null_recorder_run":
                outcomes["instrumented"] == outcomes["null"],
            "matches_instrumented_run":
                outcomes["spans"] == outcomes["instrumented"]
                == outcomes["sampled"],
            f"matches_null_recorder_run_n{OBS_IDENTITY_STEPS}":
                observed_n == unobserved_n,
        },
    }


def collect_wal(seed: int = 42) -> Dict[str, object]:
    """The ``wal`` section: journalling cost on one simulate run."""
    last: Dict[str, Tuple[Dict[str, Any], int]] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-wal-") as workdir:
        run_ids = itertools.count()

        def mode(name: str) -> Callable[[], float]:
            def run() -> float:
                wal_dir = (None if name == "off" else
                           os.path.join(workdir, f"{name}-{next(run_ids)}"))
                seconds, outcome, wal_records = _simulate(
                    WAL_SIM, seed, wal_dir=wal_dir,
                    fsync=_WAL_FSYNC.get(name, "none"))
                last[name] = (outcome, wal_records)
                return seconds
            return run

        seconds = alternate({name: mode(name) for name in
                             ("off", "buffered", "batch", "always")})
    baseline = last["off"][0]
    return {
        **run_stamp(seed, WAL_SIM),
        "timings": {name: timing(runs, baseline["engine_events"])
                    for name, runs in seconds.items()},
        "ratios": {f"{name}_slowdown": ratio(seconds[name], seconds["off"])
                   for name in _WAL_FSYNC},
        "wal_records": {name: count for name, (_, count) in last.items()},
        "outcome": baseline,
        "checks": {
            "matches_baseline": all(outcome == baseline
                                    for outcome, _ in last.values()),
        },
    }


# ---------------------------------------------------------------------- #
# Trace-format workload                                                  #
# ---------------------------------------------------------------------- #

#: Synthetic events per bench stream, and the binary chunk size.
TRACE_EVENTS = 1_000_000
TRACE_CHUNK_EVENTS = DEFAULT_CHUNK_EVENTS

#: Events in the round-trip identity sample (regenerated from the seed).
ROUNDTRIP_SAMPLE = 20_000

#: Behaviour classes the synthetic downloads cycle through.
_CLASSES = ("honest", "free_rider", "polluter")


def synthetic_events(count: int, seed: int = 7) -> Iterator[Dict[str, Any]]:
    """A deterministic, realistically-shaped stream of ``count`` events.

    Mimics a simulator trace: mostly downloads and requests with string,
    float, int and bool fields, a steady trickle of DHT lookups,
    reputation snapshots, multitrust iterations and pipeline refreshes,
    plus occasional irregular records (a null field) so the JSON fallback
    column is exercised, not just the fast paths.  Seeded from
    ``random.Random``, so two machines bench the same byte stream.
    """
    rng = random.Random(seed)
    t = 0.0
    for seq in range(count):
        t += rng.random() * 2.0
        record: Dict[str, Any] = {"seq": seq, "t": t}
        roll = rng.random()
        if roll < 0.45:
            record.update(
                event="download",
                peer=f"peer-{rng.randrange(256):03d}",
                cls=_CLASSES[rng.randrange(3)],
                file=rng.randrange(4096),
                wait=rng.random() * 30.0,
                fake=rng.random() < 0.2,
            )
        elif roll < 0.70:
            record.update(
                event="request",
                peer=f"peer-{rng.randrange(256):03d}",
                file=rng.randrange(4096),
            )
        elif roll < 0.82:
            record.update(
                event="dht_lookup",
                hops=rng.randrange(1, 9),
                retries=rng.randrange(0, 3),
                ok=rng.random() > 0.05,
            )
        elif roll < 0.92:
            record.update(
                event="reputation_snapshot",
                peer=f"peer-{rng.randrange(256):03d}",
                cls=_CLASSES[rng.randrange(3)],
                score=rng.random(),
                norm=rng.random(),
                service_class=rng.randrange(4),
                bytes_up=float(rng.randrange(1 << 24)),
                bytes_down=float(rng.randrange(1 << 24)),
                fakes_served=rng.randrange(8),
                online=rng.random() > 0.1,
            )
        elif roll < 0.97:
            record.update(
                event="multitrust_iteration",
                iteration=rng.randrange(1, 40),
                residual=rng.random() * 1e-2,
            )
        else:
            # Irregular on purpose: ``detail`` is sometimes null, which
            # forces that column through the JSON fallback encoding.
            record.update(
                event="maintenance",
                removed=rng.randrange(4),
                detail=None if rng.random() < 0.5 else "sweep",
            )
        yield record


def _scan_binary(path: Path) -> Dict[str, Any]:
    """The columnar aggregation pass: counts by kind + numeric sums."""
    kinds: Counter = Counter()
    wait_sum = 0.0
    hops_sum = 0.0
    events = 0
    with TraceReader(path) as reader:
        for batch in reader.batches():
            events += batch.n_events
            kinds.update(batch.kind_counts())
            wait_sum += sum(batch.column_values("wait"))
            hops_sum += sum(batch.column_values("hops"))
    return {"events": events, "kinds": dict(sorted(kinds.items())),
            "wait_sum": wait_sum, "hops_sum": hops_sum}


def _scan_jsonl(path: Path) -> Dict[str, Any]:
    """The same aggregation over ``json.loads``-decoded JSONL records."""
    kinds: Counter = Counter()
    wait_sum = 0.0
    hops_sum = 0.0
    events = 0
    for record in read_events(str(path)):
        events += 1
        kinds[record["event"]] += 1
        wait = record.get("wait")
        if wait is not None:
            wait_sum += wait
        hops = record.get("hops")
        if hops is not None:
            hops_sum += hops
    return {"events": events, "kinds": dict(sorted(kinds.items())),
            "wait_sum": wait_sum, "hops_sum": hops_sum}


def _aggregates_match(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Equality up to float summation order (chunked vs per-event)."""
    return (a["events"] == b["events"] and a["kinds"] == b["kinds"]
            and math.isclose(a["wait_sum"], b["wait_sum"], rel_tol=1e-9)
            and math.isclose(a["hops_sum"], b["hops_sum"], rel_tol=1e-9))


def _roundtrip_identical(workdir: Path, seed: int) -> bool:
    """Binary -> canonical JSONL must equal the direct JSONL export."""
    binary_path = workdir / "roundtrip.bin"
    with TraceWriter(binary_path, chunk_events=TRACE_CHUNK_EVENTS) as writer:
        writer.extend(synthetic_events(ROUNDTRIP_SAMPLE, seed))
    direct = "".join(canonical_line(event) + "\n"
                     for event in synthetic_events(ROUNDTRIP_SAMPLE, seed))
    with TraceReader(binary_path) as reader:
        converted = "".join(canonical_line(event) + "\n"
                            for event in reader)
    return converted == direct


def collect_trace(seed: int = 42) -> Dict[str, object]:
    """The ``trace`` section: binary vs JSONL on one synthetic stream.

    The scan is the pass every ``repro report``-shaped consumer runs:
    counts by kind plus numeric sums.  Both scans' aggregates must match,
    so ``scan_ratio`` compares two scans that provably did the same work.
    """
    events = TRACE_EVENTS
    chunks: List[int] = []
    aggregates: Dict[str, Dict[str, Any]] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-trace-") as tmp:
        workdir = Path(tmp)
        binary_path = workdir / "bench.bin"
        jsonl_path = workdir / "bench.jsonl"

        def write_binary() -> float:
            started = time.perf_counter()
            with TraceWriter(binary_path,
                             chunk_events=TRACE_CHUNK_EVENTS) as writer:
                writer.extend(synthetic_events(events, seed))
            seconds = time.perf_counter() - started
            chunks.append(writer.chunks_written)
            return seconds

        def write_jsonl() -> float:
            started = time.perf_counter()
            with JsonlTraceWriter(jsonl_path) as writer:
                for record in synthetic_events(events, seed):
                    writer.append(record)
            return time.perf_counter() - started

        def scan(name: str, scanner: Callable[[Path], Dict[str, Any]],
                 path: Path) -> Callable[[], float]:
            def run() -> float:
                started = time.perf_counter()
                aggregates[name] = scanner(path)
                return time.perf_counter() - started
            return run

        seconds = alternate({"binary_write": write_binary,
                             "jsonl_write": write_jsonl})
        seconds.update(alternate({
            "binary_scan": scan("binary", _scan_binary, binary_path),
            "jsonl_scan": scan("jsonl", _scan_jsonl, jsonl_path)}))
        binary_bytes = binary_path.stat().st_size
        jsonl_bytes = jsonl_path.stat().st_size
        roundtrip = _roundtrip_identical(workdir, seed)

    return {
        **run_stamp(seed, {"bench": "trace", "events": events,
                           "chunk_events": TRACE_CHUNK_EVENTS}),
        "events": events,
        "chunk_events": TRACE_CHUNK_EVENTS,
        "timings": {name: timing(runs, events)
                    for name, runs in seconds.items()},
        "ratios": {"scan_ratio": ratio(seconds["jsonl_scan"],
                                       seconds["binary_scan"])},
        "binary": {"file_bytes": binary_bytes, "chunks": chunks[-1]},
        "jsonl": {"file_bytes": jsonl_bytes},
        "size_ratio": binary_bytes / jsonl_bytes,
        "checks": {
            "scan_aggregates_match": _aggregates_match(aggregates["binary"],
                                                       aggregates["jsonl"]),
            "roundtrip_identical": roundtrip,
        },
    }


# ---------------------------------------------------------------------- #
# Pipeline workload                                                      #
# ---------------------------------------------------------------------- #

#: Evaluations / downloads / ranks per peer.  Refresh tiers pick files on
#: a Zipf-ish skew; scaling tiers pick uniformly, so co-evaluator counts
#: stay bounded and TM density falls as 1/peers.
REFRESH_COUNTS = (12, 6, 2)
SCALE_COUNTS = (8, 4, 2)

#: Single-event refreshes each scaling tier replays.
SCALE_EVENTS = 50

#: Matmul backend pairs as (name, nodes, density, baseline, candidate);
#: ``speedup`` is baseline seconds over candidate seconds for TM^2.
#: dense_vs_csr sits above the 30% auto-threshold, so the heuristic must
#: pick dense.  csr_vs_dense sits well under the dense threshold, so auto
#: must pick csr; its TM^2 has more terms than cells, so csr runs scipy's
#: csr x dense kernel.  csr_sparse_vs_dense has about 0.04 terms per cell,
#: so csr runs the sparse x sparse kernel, the one that fits a large,
#: sparse product (n^2 floats for 10k peers is 800 MB).
POWER_BENCHES: Tuple[Tuple[str, int, float, str, str], ...] = (
    ("dense_vs_csr", 120, 0.5, "csr", "dense"),
    ("csr_vs_dense", 1000, 0.05, "dense", "csr"),
    ("csr_sparse_vs_dense", 2000, 0.005, "dense", "csr"),
)
POWER_STEPS = 2


def _zipf_index(rng: random.Random, n: int) -> int:
    """Log-uniform index in [0, n): a cheap Zipf-ish popularity skew."""
    return min(int(n ** rng.random()) - 1, n - 1)


def _uniform_index(rng: random.Random, n: int) -> int:
    return rng.randrange(n)


def _seed_system(peers: int, seed: int,
                 pick: Callable[[random.Random, int], int],
                 counts: Tuple[int, int, int]):
    """A populated reputation system over ``peers`` users, fully refreshed.

    ``pick(rng, n)`` chooses a file index; ``counts`` is evaluations,
    downloads and ranks per peer.
    """
    from ..core import MultiDimensionalReputationSystem

    rng = random.Random(seed)
    system = MultiDimensionalReputationSystem(auto_refresh=False)
    users = [f"u{i:05d}" for i in range(peers)]
    files = [f"f{i:05d}" for i in range(peers * 2)]
    evals, downloads, ranks = counts
    for user in users:
        for _ in range(evals):
            system.record_vote(user, files[pick(rng, len(files))],
                               rng.random())
        for _ in range(downloads):
            uploader = users[rng.randrange(peers)]
            if uploader == user:
                continue
            file_id = files[pick(rng, len(files))]
            system.record_download(user, uploader, file_id,
                                   rng.uniform(1e5, 1e7))
            system.record_vote(user, file_id, rng.random())
        for _ in range(ranks):
            ratee = users[rng.randrange(peers)]
            if ratee != user:
                system.record_rank(user, ratee, rng.random())
    system.recompute()
    system.refresh_view()  # initial full build, outside all timings
    return system, users, files, rng


def _bench_refresh(peers: int, seed: int, events: int) -> Dict[str, object]:
    """Single-event delta refresh vs forced full rebuild, alternated.

    Each round times ``events // PAIRS`` single-event refreshes (their
    mean) and then one full rebuild, which must reproduce the patched
    checksums.
    """
    system, users, files, rng = _seed_system(peers, seed, _zipf_index,
                                             REFRESH_COUNTS)
    pipeline = system.pipeline
    per_round = max(1, events // PAIRS)
    patched: List[Dict[str, str]] = []
    matches: List[bool] = []

    def incremental() -> float:
        total = 0.0
        for _ in range(per_round):
            user = users[rng.randrange(len(users))]
            file_id = files[_zipf_index(rng, len(files))]
            system.record_vote(user, file_id, rng.random())
            started = time.perf_counter()
            pipeline.refresh()
            total += time.perf_counter() - started
        patched.append(pipeline.checksums())
        return total / per_round

    def full() -> float:
        started = time.perf_counter()
        pipeline.refresh(force_full=True)
        seconds = time.perf_counter() - started
        matches.append(pipeline.checksums() == patched[-1])
        return seconds

    seconds = alternate({"incremental": incremental, "full": full})
    return {
        "peers": peers,
        "events": per_round * PAIRS,
        "tm_rows": len(pipeline.trust.row_ids()),
        "tm_entries": pipeline.trust.entry_count(),
        "timings": {name: timing(runs) for name, runs in seconds.items()},
        "incremental_speedup": ratio(seconds["full"],
                                     seconds["incremental"]),
        "checksums_match": all(matches),
    }


def _random_matrix(seed: int, nodes: int, density: float):
    """A random row-stochastic matrix at the requested shape."""
    from ..core import TrustMatrix

    rng = random.Random(seed)
    matrix = TrustMatrix()
    ids = [f"n{i:03d}" for i in range(nodes)]
    per_row = max(1, int(density * (nodes - 1)))
    for i in ids:
        targets = rng.sample([j for j in ids if j != i], per_row)
        values = {j: rng.random() for j in targets}
        total = sum(values.values())
        for j, value in values.items():
            matrix.set(i, j, value / total)
    return matrix


def _bench_power(seed: int, nodes: int, density: float, baseline: str,
                 candidate: str) -> Dict[str, object]:
    """TM^2 on two backends over one random matrix, alternated."""
    from ..core import resolve_backend, select_backend
    from ..core.multitrust import matrix_residual

    matrix = _random_matrix(seed, nodes, density)
    results: Dict[str, Any] = {}

    def power(name: str) -> Callable[[], float]:
        backend = resolve_backend(name, matrix)

        def run() -> float:
            # A fresh operand per run: a matrix keeps its array form
            # (``to_csr``), and each refresh powers a new TM.
            operand = matrix.copy_with_rows({})
            started = time.perf_counter()
            results[name] = backend.power(operand, POWER_STEPS)
            return time.perf_counter() - started
        return run

    seconds = alternate({name: power(name) for name in (baseline,
                                                         candidate)})
    return {
        "nodes": nodes,
        "density": matrix.density(),
        "steps": POWER_STEPS,
        "timings": {name: timing(runs) for name, runs in seconds.items()},
        "speedup": ratio(seconds[baseline], seconds[candidate]),
        "results_max_abs_diff": matrix_residual(results[baseline],
                                                results[candidate]),
        "auto_selects": select_backend(matrix).name,
    }


def _bench_scaling(peers: int, seed: int) -> Dict[str, object]:
    """Per-event refresh latency over one replayed stream; the patched
    checksums must equal a forced full rebuild's."""
    system, users, files, _ = _seed_system(peers, seed, _uniform_index,
                                           SCALE_COUNTS)
    pipeline = system.pipeline
    rng = random.Random(seed + 1)
    seconds: List[float] = []
    for _ in range(SCALE_EVENTS):
        system.record_vote(users[rng.randrange(peers)],
                           files[rng.randrange(len(files))], rng.random())
        started = time.perf_counter()
        pipeline.refresh()
        seconds.append(time.perf_counter() - started)
    incremental = pipeline.checksums()
    pipeline.refresh(force_full=True)
    return {
        "peers": peers,
        "events": len(seconds),
        "tm_rows": len(pipeline.trust.row_ids()),
        "tm_entries": pipeline.trust.entry_count(),
        "refresh": {**timing(seconds),
                    "mean_seconds": mean(seconds),
                    "p95_seconds": percentile(seconds, 95)},
        "checksums_match": pipeline.checksums() == incremental,
    }


def collect_pipeline(seed: int = 42, sizes: Sequence[int] = (100, 500, 1000),
                     events: int = 20,
                     scale_sizes: Sequence[int] = ()) -> Dict[str, object]:
    """The ``pipeline`` section.  ``refresh`` is sorted by size, so
    ``refresh.0`` is always the smallest population."""
    sizes = sorted(sizes)
    config = {
        "sizes": sizes,
        "events": events,
        "refresh_counts": REFRESH_COUNTS,
        "power_benches": POWER_BENCHES,
        "power_steps": POWER_STEPS,
        "scale_sizes": list(scale_sizes),
        "scale_events": SCALE_EVENTS,
        "scale_counts": SCALE_COUNTS,
    }
    snapshot: Dict[str, Any] = {
        **run_stamp(seed, config),
        "refresh": [_bench_refresh(peers, seed, events) for peers in sizes],
    }
    for name, nodes, density, baseline, candidate in POWER_BENCHES:
        snapshot[name] = _bench_power(seed, nodes, density, baseline,
                                      candidate)
    tiers = snapshot["refresh"]
    if scale_sizes:
        snapshot["scaling"] = [_bench_scaling(peers, seed)
                               for peers in scale_sizes]
        tiers = tiers + snapshot["scaling"]
    snapshot["checks"] = {
        "checksums_match": all(tier["checksums_match"] for tier in tiers)}
    return snapshot


#: ``repro bench SECTION`` -> collector.  Each takes ``seed``; only
#: ``pipeline`` takes workload options.
SECTIONS: Dict[str, Callable[..., Dict[str, object]]] = {
    "obs": collect_obs,
    "wal": collect_wal,
    "trace": collect_trace,
    "pipeline": collect_pipeline,
}
