"""Run one benchmark workload at one seed and print its metrics.

    python3 perfbench/run.py --workload maze-replay --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout (it imports ``src/repro``).  The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
provenance stamp.  ``--trace 0`` reports the end-to-end metrics with
nothing installed; ``--trace 1`` runs every pass twice, untraced and then
with the per-layer probes of :mod:`perfbench.tracing`, checks that both
produce the same digest, and reports the per-layer metrics.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys

# Single-threaded BLAS, pinned before numpy can be imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_variable] = "1"
# Keep the checkout free of bytecode caches.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "throughput_eps": "1/s",
    "setup_s": "s",
    "refresh_p50_ms": "ms",
    "refresh_p90_ms": "ms",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "peak_rss_mb": "MiB",
}

#: Minimum samples per run, so p90 and p99 each have ten samples beyond.
#: (Every cycle sets up three times, once per world.)
MIN_REFRESHES = 100
MIN_QUERIES = 1000
#: Safety stop well inside the 180 s a run may take.
MAX_WALL_S = 150.0


def _load_references() -> Dict[str, Any]:
    with REFERENCES.open() as handle:
        return json.load(handle)


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, record: bool = False) -> Dict[str, Any]:
    """Run whole cycles of passes for at least ``seconds`` seconds.

    A cycle runs one pass in each of the workload's worlds.  The run stops
    at the first cycle boundary ``seconds`` after the warm-up, once the
    sample minimums are met; a run slowed down by its machine therefore
    measures for longer instead of averaging over fewer passes.

    Returns the result object the last stdout line carries, plus a
    ``stamp`` entry the caller prints separately.
    """
    from perfbench import harness
    from perfbench.tracing import LayerTracer, per_layer_units, traced
    from perfbench.workloads import WORKLOADS, pass_seed

    workload = WORKLOADS[workload_name]
    references = _load_references()
    known = references["digests"].setdefault(workload_name, {})
    work_root = Path.cwd() / ".bench_work"

    setups: List[float] = []
    refresh_ms: List[float] = []
    query_us: List[float] = []
    completed = 0
    measured_s = 0.0
    wall_measured_s = 0.0
    pass_rates: List[float] = []
    untraced_phase_s = 0.0
    traced_phase_s = 0.0
    attempted = 0
    failed = 0
    passes = 0
    notes: List[str] = []
    tracer = LayerTracer()
    counters: Dict[str, float] = {
        "pipeline.incremental_refreshes": 0.0, "pipeline.rows_rebuilt": 0.0,
        "pipeline.total_rows": 0.0, "matrix_backend.csr_refreshes": 0.0}
    pass_counts: Dict[str, float] = {}

    started = time.perf_counter()
    try:
        worlds = workload.make_worlds(tiny)
        # Warm-up: one tiny pass pays for imports and first-call set-up.
        workload.run_pass(workload.make_inputs(workload.make_worlds(True)[0],
                                               seed, True),
                          work_root, contextlib.nullcontext)
        deadline = time.perf_counter() + seconds
        while True:
            current = pass_seed(seed, passes)
            inputs = workload.make_inputs(worlds[passes % len(worlds)],
                                          current, tiny)
            try:
                result = workload.run_pass(inputs, work_root,
                                           contextlib.nullcontext)
                ok = result.rebuild_matches
                if not ok:
                    notes.append(f"pass {current}: incremental != rebuild")
                reference = None if tiny else known.get(str(current))
                if reference is None and record and not tiny:
                    known[str(current)] = result.digest
                elif reference is not None and reference != result.digest:
                    ok = False
                    notes.append(f"pass {current}: digest != reference")
                if trace:
                    observed = workload.run_pass(
                        inputs, work_root,
                        lambda: traced(tracer, counters))
                    traced_phase_s += observed.phase_s
                    for name, value in observed.counts.items():
                        pass_counts[name] = pass_counts.get(name, 0.0) + value
                    if observed.digest != result.digest:
                        ok = False
                        notes.append(f"pass {current}: traced != untraced")
            except Exception:  # noqa: BLE001 - reported, then the run stops
                traceback.print_exc()
                attempted += 1
                failed += 1
                notes.append(f"pass {current}: raised")
                break
            passes += 1
            attempted += result.attempted
            if not ok:
                failed += result.attempted
            setups.extend(result.setup_s)
            refresh_ms.extend(result.refresh_ms)
            query_us.extend(result.query_us)
            completed += result.completed
            measured_s += result.measured_s
            wall_measured_s += result.wall_measured_s
            pass_rates.append(result.completed / result.measured_s)
            untraced_phase_s += result.phase_s
            if passes % len(worlds):
                continue
            # A cycle has covered every world once.
            now = time.perf_counter()
            if now - started > MAX_WALL_S:
                break
            enough = trace or (len(refresh_ms) >= MIN_REFRESHES
                               and len(query_us) >= MIN_QUERIES)
            if enough and now >= deadline:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    if record and not tiny:
        with REFERENCES.open("w") as handle:
            json.dump(references, handle, indent=1, sort_keys=True)
            handle.write("\n")

    if trace:
        values = _per_layer_values(tracer, counters, pass_counts,
                                   traced_phase_s, untraced_phase_s)
        metrics = harness.unit_metrics(values, per_layer_units())
    else:
        values = {
            "throughput_eps": completed / measured_s if measured_s else 0.0,
            "setup_s": statistics.median(setups) if setups else 0.0,
            "refresh_p50_ms": harness.percentile(refresh_ms, 50),
            "refresh_p90_ms": harness.percentile(refresh_ms, 90),
            "query_p50_us": harness.percentile(query_us, 50),
            "query_p99_us": harness.percentile(query_us, 99),
            "peak_rss_mb": harness.peak_rss_mb(),
        }
        missing = [name for name, value in values.items() if value is None]
        if missing:
            notes.append(f"too few samples for {', '.join(missing)}")
            failed += 1
            attempted += 1
        metrics = harness.unit_metrics(
            {name: value for name, value in values.items()
             if value is not None},
            {name: unit for name, unit in END_TO_END.items()
             if values[name] is not None})
    stamp = {
        "workload": workload_name, "seed": seed, "trace": int(trace),
        "passes": passes, "pass_seeds": [pass_seed(seed, k)
                                         for k in range(passes)],
        "samples": {"setup": len(setups), "refresh": len(refresh_ms),
                    "query": len(query_us)},
        "completed": completed, "unit": workload.unit,
        "pass_throughput": [round(rate, 1) for rate in pass_rates],
        "wall_throughput": (completed / wall_measured_s
                            if wall_measured_s else None),
        "speed_scale": (measured_s / wall_measured_s
                        if wall_measured_s else None),
        "error_rate": failed / attempted if attempted else 1.0,
        "wall_s": time.perf_counter() - started,
        "notes": notes,
        **harness.provenance(ROOT),
    }
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "stamp": stamp}


def _per_layer_values(tracer: Any, counters: Dict[str, float],
                      pass_counts: Dict[str, float], traced_phase_s: float,
                      untraced_phase_s: float) -> Dict[str, float]:
    from perfbench.tracing import LAYERS, TRACED_OPS

    values: Dict[str, float] = {}
    for op in TRACED_OPS:
        stats = tracer.ops.get(op)
        values[f"{op}.calls"] = float(stats.calls) if stats else 0.0
        values[f"{op}.busy_s"] = stats.busy_s if stats else 0.0
        values[f"{op}.self_s"] = stats.self_s if stats else 0.0
    incremental = counters["pipeline.incremental_refreshes"]
    total_rows = counters["pipeline.total_rows"]
    retrievals = pass_counts.get("dht.retrievals", 0.0)
    values.update({
        "engine.events": pass_counts.get("engine.events", 0.0),
        "pipeline.rows_rebuilt": counters["pipeline.rows_rebuilt"],
        "pipeline.rebuild_ratio": (counters["pipeline.rows_rebuilt"]
                                   / total_rows if total_rows else 0.0),
        "matrix_backend.csr_share": (counters["matrix_backend.csr_refreshes"]
                                     / incremental if incremental else 0.0),
        "tm.nnz": pass_counts.get("tm.nnz", 0.0),
        "rm.nnz": pass_counts.get("rm.nnz", 0.0),
        "wal.bytes": pass_counts.get("wal.bytes", 0.0),
        "dht.messages": pass_counts.get("dht.messages", 0.0),
        "dht.retries": pass_counts.get("dht.retries", 0.0),
        "dht.retrieve_complete_ratio": (
            pass_counts.get("dht.retrievals_complete", 0.0) / retrievals
            if retrievals else 0.0),
    })
    layer_self = tracer.layer_self()
    layer_self["unattributed"] = max(
        traced_phase_s - sum(layer_self.values()), 0.0)
    for layer in (*LAYERS, "unattributed"):
        values[f"layer.{layer}.self_s"] = layer_self[layer]
        values[f"layer.{layer}.self_share"] = (
            layer_self[layer] / traced_phase_s if traced_phase_s else 0.0)
    values["trace.overhead_ratio"] = (traced_phase_s / untraced_phase_s
                                      if untraced_phase_s else 0.0)
    return values


def main(argv: List[str]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (seconds apart, same metrics)")
    parser.add_argument("--record", action="store_true",
                        help="store digests of passes without a reference")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  tiny=args.tiny, record=args.record)
    stamp = outcome.pop("stamp")
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
