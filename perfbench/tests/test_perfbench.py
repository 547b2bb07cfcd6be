"""Tests of the benchmark's own code, at smoke-test sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

from perfbench import harness
from perfbench.tracing import LayerTracer, per_layer_units, traced
from perfbench.workloads import WORKLOADS, SimInputs

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _fingerprint(inputs: Any) -> Any:
    if isinstance(inputs, SimInputs):
        return (inputs.make_config().seed, inputs.writes, inputs.reads)
    return (inputs.bulk, inputs.chunks, inputs.reads)


def _run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


# ---------------------------------------------------------------------- #
# Generators                                                             #
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_and_seed_dependent(name: str) -> None:
    workload = WORKLOADS[name]
    world = workload.make_worlds(True)[0]
    first = _fingerprint(workload.make_inputs(world, 5, True))
    again = _fingerprint(workload.make_inputs(workload.make_worlds(True)[0],
                                              5, True))
    other = _fingerprint(workload.make_inputs(world, 6, True))
    assert first == again
    assert first != other


# ---------------------------------------------------------------------- #
# Percentile helper                                                      #
# ---------------------------------------------------------------------- #

def test_percentiles_need_ten_samples_beyond() -> None:
    assert harness.percentile(list(range(19)), 50) is None
    assert harness.percentile(list(range(20)), 50) == 9
    assert harness.percentile(list(range(99)), 90) is None
    assert harness.percentile(list(range(100)), 90) == 89
    assert harness.percentile(list(range(999)), 99) is None
    assert harness.percentile(list(range(1000)), 99) == 989


def test_percentile_is_nearest_rank_on_unsorted_input() -> None:
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 4
    assert harness.percentile(samples, 50) == 3.0


# ---------------------------------------------------------------------- #
# Speed scaling                                                          #
# ---------------------------------------------------------------------- #

def test_speed_gauge_scales_by_the_probes_around_each_segment(
        monkeypatch: pytest.MonkeyPatch) -> None:
    reference = harness.REFERENCE_PROBE_S
    probes = iter([reference, reference, 3 * reference, 3 * reference])
    monkeypatch.setattr(harness, "probe_s", lambda: next(probes))
    gauge = harness.SpeedGauge()
    assert gauge.segment() == pytest.approx(1.0)
    assert gauge.segment() == pytest.approx(0.5 ** harness.SPEED_EXPONENT)
    assert gauge.segment() == pytest.approx(
        (1 / 3) ** harness.SPEED_EXPONENT)


def test_probe_leaves_the_garbage_collector_as_it_found_it() -> None:
    import gc

    assert gc.isenabled()
    assert harness.probe_s() > 0
    assert gc.isenabled()


# ---------------------------------------------------------------------- #
# Smoke runs through the command line                                    #
# ---------------------------------------------------------------------- #

def _last_json(stdout: str) -> Dict[str, Any]:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(name: str) -> None:
    completed = _run_cli("--workload", name, "--seed", "3", "--seconds",
                         "0.1", "--trace", "0", "--tiny")
    assert completed.returncode == 0, completed.stderr
    result = _last_json(completed.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_emits_every_per_layer_metric(name: str) -> None:
    completed = _run_cli("--workload", name, "--seed", "3", "--seconds",
                         "0.1", "--trace", "1", "--tiny")
    assert completed.returncode == 0, completed.stderr
    result = _last_json(completed.stdout)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    assert expected == per_layer_units()


def test_benchmark_file_lists_the_workloads() -> None:
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_run_without_source_tree_fails_without_a_result(
        tmp_path: Path) -> None:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = _run_cli("--workload", "maze-replay", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""


# ---------------------------------------------------------------------- #
# Observed == unobserved                                                 #
# ---------------------------------------------------------------------- #

#: Operations each workload must reach, and those it must leave untouched.
USED: Dict[str, List[str]] = {
    "maze-replay": ["pipeline.refresh", "wal.append", "wal.sync"],
    "sparse-multitrust": ["pipeline.refresh", "matrix_backend.power"],
    "sim-dht": ["engine", "query.effective_reputation", "dht.publish",
                "dht.retrieve", "dht.lookup"],
}
BYPASSED: Dict[str, List[str]] = {
    "maze-replay": ["matrix_backend.power", "dht.publish", "engine"],
    "sparse-multitrust": ["wal.append", "dht.publish", "engine"],
    "sim-dht": ["matrix_backend.power", "wal.append"],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_digest_equals_untraced_digest(name: str,
                                              tmp_path: Path) -> None:
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(workload.make_worlds(True)[0], 11, True)
    plain = workload.run_pass(inputs, tmp_path, contextlib.nullcontext)
    tracer = LayerTracer()
    counters = dict.fromkeys(
        ("pipeline.incremental_refreshes", "pipeline.rows_rebuilt",
         "pipeline.total_rows", "matrix_backend.csr_refreshes"), 0.0)
    observed = workload.run_pass(inputs, tmp_path,
                                 lambda: traced(tracer, counters))
    assert observed.digest == plain.digest
    assert plain.rebuild_matches and observed.rebuild_matches
    for op in USED[name]:
        assert tracer.ops[op].calls > 0, op
    for op in BYPASSED[name]:
        assert tracer.ops[op].calls == 0, op


def test_tracer_restores_originals_and_splits_self_time() -> None:
    class Layer:
        def outer(self) -> int:
            return self.inner() + 1

        def inner(self) -> int:
            return 1

    original = vars(Layer)["outer"]
    tracer = LayerTracer()
    tracer.wrap(Layer, "outer", "outer", "simulator")
    tracer.wrap(Layer, "inner", "inner", "dht")
    assert Layer().outer() == 2
    tracer.uninstall()
    assert vars(Layer)["outer"] is original
    outer, inner = tracer.ops["outer"], tracer.ops["inner"]
    assert (outer.calls, inner.calls) == (1, 1)
    assert outer.busy_s >= inner.busy_s
    assert outer.self_s == pytest.approx(outer.busy_s - inner.busy_s)
