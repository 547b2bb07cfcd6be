"""Pipeline perf snapshots: the ``BENCH_pipeline.json`` trajectory point.

Measures the claims the incremental pipeline makes:

1. **Incremental beats full.**  For a seeded synthetic population of N
   peers, one refresh consuming a *single-event* delta must be far cheaper
   than a forced full rebuild — that ratio is the point of delta tracking.
2. **Dense beats sparse when TM densifies.**  Past ~30% density the numpy
   product should beat the dict-of-dicts product (the ``"auto"`` backend
   heuristic's premise), while agreeing to float tolerance.
3. **CSR beats dense when TM stays sparse at scale.**  At ≤10% density on
   a CSR-regime node count the compressed product should beat the dense
   numpy product — the third regime of the ``"auto"`` heuristic.
4. **Single-event refreshes stay cheap at scale.**  One seeded stream of
   single-event deltas replays through the pipeline at thousands of
   peers; the tier reports per-event refresh latency (mean, p50, p95) and
   requires the incrementally patched checksums to equal a forced full
   rebuild's.

Snapshots carry the same provenance stamp as ``BENCH_obs.json`` (seed,
config hash, git sha — see :mod:`repro.obs.bench`) so CI can gate on the
speedups and regress them across commits.  Wall-clock numbers live only in
the timing fields; the workload itself is fully deterministic.

Core imports are deferred into the functions to mirror
:mod:`repro.obs.bench` (core modules import :mod:`repro.obs.recorder`).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Sequence, Tuple

from .bench import run_stamp

__all__ = ["collect_pipeline_snapshot", "incremental_speedup",
           "dense_speedup", "scaling_identical", "csr_speedup"]

#: Evaluations / downloads / ranks per peer in the synthetic workload.
_EVALS_PER_PEER = 12
_DOWNLOADS_PER_PEER = 6
_RANKS_PER_PEER = 2

#: Backend micro-bench shape: node count and target density (> the 30%
#: auto-threshold, so the heuristic must pick dense here).
_BACKEND_NODES = 120
_BACKEND_DENSITY = 0.5
_BACKEND_STEPS = 2

#: CSR micro-bench shape: node count deep in the CSR regime (>= 256) at a
#: density well under the 30% dense threshold, so auto must pick csr.  The
#: csr-vs-dense margin widens with node count; 1000 nodes keeps the bench
#: under ~2s while the win is clearly measurable.
_CSR_NODES = 1000
_CSR_DENSITY = 0.05
_CSR_STEPS = 2

#: Scaling workload: per-peer event counts for the scaling tiers.  File
#: picks are *uniform* (not Zipf) so co-evaluator counts stay bounded and
#: TM density falls as 1/peers.
_SCALED_EVALS_PER_PEER = 8
_SCALED_DOWNLOADS_PER_PEER = 4
_SCALED_RANKS_PER_PEER = 2


def _zipf_index(rng: random.Random, n: int) -> int:
    """Log-uniform index in [0, n): a cheap Zipf-ish popularity skew."""
    return min(int(n ** rng.random()) - 1, n - 1)


def _seed_system(peers: int, seed: int):
    """A populated reputation system over ``peers`` users, fully refreshed."""
    from ..core import MultiDimensionalReputationSystem

    rng = random.Random(seed)
    system = MultiDimensionalReputationSystem(auto_refresh=False)
    users = [f"u{i:04d}" for i in range(peers)]
    files = [f"f{i:04d}" for i in range(peers * 2)]
    for user in users:
        for _ in range(_EVALS_PER_PEER):
            file_id = files[_zipf_index(rng, len(files))]
            system.record_vote(user, file_id, rng.random())
        for _ in range(_DOWNLOADS_PER_PEER):
            uploader = users[rng.randrange(peers)]
            if uploader == user:
                continue
            file_id = files[_zipf_index(rng, len(files))]
            system.record_download(user, uploader, file_id,
                                   rng.uniform(1e5, 1e7))
            system.record_vote(user, file_id, rng.random())
        for _ in range(_RANKS_PER_PEER):
            ratee = users[rng.randrange(peers)]
            if ratee != user:
                system.record_rank(user, ratee, rng.random())
    system.recompute()
    system.refresh_view()  # initial full build, outside all timings
    return system, users, files, rng


def _time_full_refresh(system, repeats: int) -> float:
    """Mean seconds per forced full rebuild."""
    total = 0.0
    for _ in range(repeats):
        started = time.perf_counter()
        system.pipeline.refresh(force_full=True)
        total += time.perf_counter() - started
    return total / repeats


def _time_incremental_refresh(system, users: Sequence[str],
                              files: Sequence[str], rng: random.Random,
                              events: int) -> float:
    """Mean seconds per single-event delta refresh."""
    total = 0.0
    for _ in range(events):
        user = users[rng.randrange(len(users))]
        file_id = files[_zipf_index(rng, len(files))]
        system.record_vote(user, file_id, rng.random())
        started = time.perf_counter()
        system.pipeline.refresh()
        total += time.perf_counter() - started
    return total / events


def _bench_refresh(peers: int, seed: int, events: int) -> Dict[str, object]:
    system, users, files, rng = _seed_system(peers, seed)
    trust = system.pipeline.trust
    full_repeats = max(1, min(5, 500 // peers))
    full_seconds = _time_full_refresh(system, repeats=full_repeats)
    incremental_seconds = _time_incremental_refresh(
        system, users, files, rng, events)
    return {
        "peers": peers,
        "tm_rows": len(trust.row_ids()),
        "tm_entries": trust.entry_count(),
        "full_refresh_seconds": full_seconds,
        "incremental_refresh_seconds": incremental_seconds,
        "incremental_speedup": (full_seconds / incremental_seconds
                                if incremental_seconds > 0 else 0.0),
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


def _dense_matrix(seed: int):
    """A random row-stochastic matrix at the backend bench's density."""
    return _random_matrix(seed, _BACKEND_NODES, _BACKEND_DENSITY)


def _bench_backends(seed: int) -> Dict[str, object]:
    from ..core import (DENSE_BACKEND, SPARSE_BACKEND, TrustMatrix,
                        select_backend)

    matrix = _dense_matrix(seed)
    ids = matrix.node_ids()

    def best_of(backend) -> "tuple":
        best = float("inf")
        result: TrustMatrix = TrustMatrix()
        for _ in range(3):
            started = time.perf_counter()
            result = backend.power(matrix, _BACKEND_STEPS)
            best = min(best, time.perf_counter() - started)
        return best, result

    sparse_seconds, sparse_result = best_of(SPARSE_BACKEND)
    dense_seconds, dense_result = best_of(DENSE_BACKEND)
    max_abs_diff = max(
        (abs(sparse_result.get(i, j) - dense_result.get(i, j))
         for i in ids for j in ids), default=0.0)
    return {
        "nodes": _BACKEND_NODES,
        "density": matrix.density(ids),
        "steps": _BACKEND_STEPS,
        "sparse_power_seconds": sparse_seconds,
        "dense_power_seconds": dense_seconds,
        "dense_speedup": (sparse_seconds / dense_seconds
                          if dense_seconds > 0 else 0.0),
        "results_max_abs_diff": max_abs_diff,
        "auto_selects": select_backend(matrix).name,
    }


def _bench_csr(seed: int) -> Dict[str, object]:
    """Dense numpy vs CSR on a sparse matrix in the CSR regime."""
    from ..core import CSR_BACKEND, DENSE_BACKEND, TrustMatrix, select_backend

    matrix = _random_matrix(seed, _CSR_NODES, _CSR_DENSITY)
    ids = matrix.node_ids()

    def best_of(backend) -> "tuple":
        best = float("inf")
        result: TrustMatrix = TrustMatrix()
        for _ in range(3):
            started = time.perf_counter()
            result = backend.power(matrix, _CSR_STEPS)
            best = min(best, time.perf_counter() - started)
        return best, result

    dense_seconds, dense_result = best_of(DENSE_BACKEND)
    csr_seconds, csr_result = best_of(CSR_BACKEND)
    max_abs_diff = max(
        (abs(dense_result.get(i, j) - csr_result.get(i, j))
         for i in ids for j in ids), default=0.0)
    return {
        "nodes": _CSR_NODES,
        "density": matrix.density(ids),
        "steps": _CSR_STEPS,
        "dense_power_seconds": dense_seconds,
        "csr_power_seconds": csr_seconds,
        "csr_speedup": (dense_seconds / csr_seconds
                        if csr_seconds > 0 else 0.0),
        "results_max_abs_diff": max_abs_diff,
        "auto_selects": select_backend(matrix).name,
    }


def _seed_scaled_system(peers: int, seed: int):
    """A populated system on the *scaling* workload (uniform file picks)."""
    from ..core import MultiDimensionalReputationSystem

    rng = random.Random(seed)
    system = MultiDimensionalReputationSystem(auto_refresh=False)
    users = [f"u{i:05d}" for i in range(peers)]
    files = [f"f{i:05d}" for i in range(peers * 2)]
    for user in users:
        for _ in range(_SCALED_EVALS_PER_PEER):
            system.record_vote(user, files[rng.randrange(len(files))],
                               rng.random())
        for _ in range(_SCALED_DOWNLOADS_PER_PEER):
            uploader = users[rng.randrange(peers)]
            if uploader == user:
                continue
            file_id = files[rng.randrange(len(files))]
            system.record_download(user, uploader, file_id,
                                   rng.uniform(1e5, 1e7))
            system.record_vote(user, file_id, rng.random())
        for _ in range(_SCALED_RANKS_PER_PEER):
            ratee = users[rng.randrange(peers)]
            if ratee != user:
                system.record_rank(user, ratee, rng.random())
    system.recompute()
    system.refresh_view()  # initial full build, outside all timings
    return system


def _scaled_stream(peers: int, seed: int,
                   events: int) -> List[Tuple[str, str, float]]:
    """The deterministic single-event stream a scaling tier replays."""
    rng = random.Random(seed + 1)
    stream: List[Tuple[str, str, float]] = []
    for _ in range(events):
        stream.append((f"u{rng.randrange(peers):05d}",
                       f"f{rng.randrange(peers * 2):05d}", rng.random()))
    return stream


def _bench_scaling(peers: int, seed: int, events: int) -> Dict[str, object]:
    """Per-event refresh latency over one stream, full-rebuild-gated."""
    from .stats import mean, percentile

    system = _seed_scaled_system(peers, seed)
    pipeline = system.pipeline
    seconds: List[float] = []
    for user, file_id, value in _scaled_stream(peers, seed, events):
        system.record_vote(user, file_id, value)
        started = time.perf_counter()
        pipeline.refresh()
        seconds.append(time.perf_counter() - started)
    incremental = pipeline.checksums()
    entry: Dict[str, object] = {
        "peers": peers,
        "events": len(seconds),
        "tm_rows": len(pipeline.trust.row_ids()),
        "tm_entries": pipeline.trust.entry_count(),
        "refresh_seconds": mean(seconds),
        "refresh_p50_seconds": percentile(seconds, 50),
        "refresh_p95_seconds": percentile(seconds, 95),
    }
    pipeline.refresh(force_full=True)
    entry["checksums_match"] = pipeline.checksums() == incremental
    return entry


def collect_pipeline_snapshot(seed: int = 42,
                              sizes: Sequence[int] = (100, 500, 1000),
                              events: int = 20,
                              scale_sizes: Sequence[int] = (),
                              scale_events: int = 50) -> Dict[str, object]:
    """Run the pipeline bench workload and return the stamped snapshot.

    ``scale_sizes`` adds scaling tiers (see :func:`_bench_scaling`).
    """
    config = {
        "sizes": list(sizes),
        "events": events,
        "evals_per_peer": _EVALS_PER_PEER,
        "downloads_per_peer": _DOWNLOADS_PER_PEER,
        "ranks_per_peer": _RANKS_PER_PEER,
        "backend_nodes": _BACKEND_NODES,
        "backend_density": _BACKEND_DENSITY,
        "csr_nodes": _CSR_NODES,
        "csr_density": _CSR_DENSITY,
        "scale_sizes": list(scale_sizes),
        "scale_events": scale_events,
    }
    refresh: List[Dict[str, object]] = [
        _bench_refresh(peers, seed, events) for peers in sizes]
    snapshot: Dict[str, object] = {
        **run_stamp(seed, config),
        "refresh": refresh,
        "backend": _bench_backends(seed),
        "csr": _bench_csr(seed),
    }
    if scale_sizes:
        snapshot["scaling"] = [_bench_scaling(peers, seed, scale_events)
                               for peers in scale_sizes]
    return snapshot


def incremental_speedup(snapshot: Dict[str, object],
                        peers: int) -> float:
    """The full/incremental refresh ratio recorded for a population size."""
    for entry in snapshot.get("refresh", ()):  # type: ignore[union-attr]
        if isinstance(entry, dict) and entry.get("peers") == peers:
            return float(entry.get("incremental_speedup", 0.0))
    return 0.0


def dense_speedup(snapshot: Dict[str, object]) -> float:
    """The sparse/dense power ratio on the >30%-density bench matrix."""
    backend = snapshot.get("backend", {})
    if not isinstance(backend, dict):
        return 0.0
    return float(backend.get("dense_speedup", 0.0))


def csr_speedup(snapshot: Dict[str, object]) -> float:
    """The dense/csr power ratio on the <=10%-density CSR-regime matrix."""
    section = snapshot.get("csr", {})
    if not isinstance(section, dict):
        return 0.0
    return float(section.get("csr_speedup", 0.0))


def scaling_identical(snapshot: Dict[str, object]) -> bool:
    """True when every scaling tier's incremental replay reproduced a
    forced full rebuild bit-for-bit."""
    entries = snapshot.get("scaling", ())
    if not entries:
        return False
    return all(isinstance(entry, dict) and entry.get("checksums_match")
               for entry in entries)  # type: ignore[union-attr]
