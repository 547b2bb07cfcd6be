"""Integration tests: the recorder wired through core, simulator and DHT.

The two properties the whole layer stands on:

* the default ``NULL_RECORDER`` leaves every result identical to the
  uninstrumented path;
* a live :class:`Recorder` at the same seed produces byte-identical trace
  and metrics artefacts across runs.
"""

import pytest

from repro.core import CSR_BACKEND, ReputationConfig
from repro.core.matrix import TrustMatrix
from repro.core.multitrust import (compute_reputation_matrix,
                                   iterated_powers, matrix_residual)
from repro.obs import NULL_RECORDER, Recorder
from repro.obs.traceio import canonical_line
from repro.simulator import (ChaosConfig, FileSharingSimulation,
                             ScenarioSpec, SimulationConfig, run_chaos_point)
from repro.simulator.metrics import SimulationMetrics

DAY = 24 * 3600.0


def _of_kind(recorder, kind):
    return [event for event in recorder.trace_sink if event["event"] == kind]


def _lines(recorder):
    return [canonical_line(event) for event in recorder.trace_sink]


def _chain_matrix():
    matrix = TrustMatrix()
    matrix.set("a", "b", 1.0)
    matrix.set("b", "c", 0.5)
    matrix.set("b", "d", 0.5)
    matrix.set("c", "d", 1.0)
    return matrix


def _sim_config(**overrides):
    defaults = dict(
        scenario=ScenarioSpec(honest=8, free_riders=2, polluters=2),
        duration_seconds=0.25 * DAY,
        num_files=30,
        request_rate=0.02,
        seed=5,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestMultitrustInstrumentation:
    def test_disabled_path_matches_fast_power(self):
        matrix = _chain_matrix()
        config = ReputationConfig(multitrust_steps=3)
        plain = compute_reputation_matrix(matrix, config=config)
        assert plain.get("a", "d") == CSR_BACKEND.power(matrix, 3).get("a",
                                                                        "d")

    def test_enabled_path_emits_residual_events(self):
        recorder = Recorder(trace_sink=[])
        config = ReputationConfig(multitrust_steps=3)
        result = compute_reputation_matrix(_chain_matrix(), config=config,
                                           recorder=recorder)
        events = _of_kind(recorder, "multitrust_iteration")
        assert [event["iteration"] for event in events] == [2, 3]
        assert all(event["residual"] >= 0.0 for event in events)
        # Exactly the unobserved result: the residuals never feed RM.
        assert result == CSR_BACKEND.power(_chain_matrix(), 3)
        snapshot = recorder.registry.snapshot()
        assert snapshot["counters"]["multitrust.computations"] == 1
        assert snapshot["histograms"]["multitrust.residual"]["count"] == 2
        assert recorder.profiler.phase("multitrust.power").calls == 1

    def test_single_step_emits_no_iterations(self):
        recorder = Recorder(trace_sink=[])
        compute_reputation_matrix(_chain_matrix(),
                                  config=ReputationConfig(),
                                  recorder=recorder)
        assert _of_kind(recorder, "multitrust_iteration") == []

    def test_matrix_residual_is_linf_over_union(self):
        previous, current = TrustMatrix(), TrustMatrix()
        previous.set("a", "b", 0.5)
        previous.set("a", "c", 0.2)  # vanishes in current
        current.set("a", "b", 0.6)
        current.set("x", "y", 0.05)  # new in current
        assert matrix_residual(previous, current) == pytest.approx(0.2)

    @pytest.mark.parametrize("seed", range(8))
    def test_matrix_residual_equals_the_entrywise_maximum(self, seed):
        # Random operands over overlapping id sets, in dict and array
        # form: the residual is the largest |current - previous| over
        # every cell either one stores, bit for bit.
        import random
        rng = random.Random(seed)
        ids = [f"u{index}" for index in range(12)]
        matrices = []
        for _ in range(2):
            matrix = TrustMatrix()
            for i in rng.sample(ids, 8):
                for j in rng.sample(ids, rng.randint(1, 6)):
                    matrix.set(i, j, rng.choice((rng.random(), 0.5)))
            matrices.append(matrix)
        previous, current = matrices
        expected = max(abs(current.get(i, j) - previous.get(i, j))
                       for i in ids for j in ids)
        assert matrix_residual(previous, current) == expected
        assert matrix_residual(previous.to_csr(), current) == expected
        assert matrix_residual(previous, previous.to_csr()) == 0.0

    def test_convergence_residuals_match_events(self):
        matrix = _chain_matrix()
        recorder = Recorder(trace_sink=[])
        compute_reputation_matrix(
            matrix, config=ReputationConfig(multitrust_steps=4),
            recorder=recorder)
        powers = list(iterated_powers(matrix, 4))
        expected = [(iteration, matrix_residual(powers[iteration - 2],
                                                powers[iteration - 1]))
                    for iteration in range(2, 5)]
        events = _of_kind(recorder, "multitrust_iteration")
        assert [(e["iteration"], e["residual"]) for e in events] == expected


class TestMetricsExport:
    def test_null_recorder_export_is_noop(self):
        metrics = SimulationMetrics()
        metrics.record_request()
        metrics.export(NULL_RECORDER)  # must not raise

    def test_export_feeds_registry(self):
        metrics = SimulationMetrics()
        metrics.record_request()
        metrics.record_download("honest", False, 1000.0, 5.0, 200.0)
        metrics.record_blocked_fake("honest")
        recorder = Recorder()
        metrics.export(recorder)
        snapshot = recorder.registry.snapshot()
        assert snapshot["counters"]["sim.requests.total"] == 1
        assert snapshot["counters"]["sim.downloads.real{cls=honest}"] == 1
        assert snapshot["counters"]["sim.fakes.blocked{cls=honest}"] == 1
        assert snapshot["histograms"]["sim.wait_seconds{cls=honest}"][
            "count"] == 1
        assert not any(name.startswith("dht.")
                       for section in snapshot.values() for name in section)

    def test_retrievals_incomplete_complements_availability(self):
        # A lossy, crash-prone cell at replication 2 misses most quorums;
        # the overlay's own counts feed both numbers.
        result = run_chaos_point(ChaosConfig(
            peers=12, files=16, rounds=8, loss_rate=0.3, churn_rate=0.5,
            crash_rate=0.1, replication=2, seed=3))
        assert result.retrievals_incomplete > 0
        assert result.availability == pytest.approx(
            1 - result.retrievals_incomplete / result.retrievals)

    def test_fake_removal_returns_latency(self):
        metrics = SimulationMetrics()
        metrics.record_fake_copy("f", "p", 10.0)
        assert metrics.record_fake_removal("f", "p", 25.0) == 15.0
        assert metrics.record_fake_removal("f", "p", 30.0) is None
        assert metrics.outstanding_fake_copies == 0


class TestSimulationInstrumentation:
    def test_recorder_does_not_change_outcomes(self):
        plain = FileSharingSimulation(_sim_config()).run()
        recorder = Recorder()
        instrumented = FileSharingSimulation(
            _sim_config(), recorder=recorder).run()
        assert instrumented.total_requests == plain.total_requests
        assert instrumented.overall_fake_fraction \
            == plain.overall_fake_fraction

    def test_trace_covers_the_run(self):
        recorder = Recorder(trace_sink=[])
        FileSharingSimulation(_sim_config(), recorder=recorder).run()
        kinds = recorder.trace.kinds()
        assert kinds["request"] > 0
        assert kinds["download"] > 0
        assert kinds["peer_join"] == 12
        downloads = _of_kind(recorder, "download")
        assert all(event["t"] >= 0.0 for event in downloads)
        assert recorder.profiler.phase("sim.maintenance").calls > 0
        assert recorder.registry.snapshot()["counters"][
            "engine.events_processed"] > 0

    def test_trace_deterministic_across_runs(self):
        def lines():
            recorder = Recorder(trace_sink=[])
            FileSharingSimulation(_sim_config(), recorder=recorder).run()
            return _lines(recorder), recorder.registry.snapshot()
        assert lines() == lines()


class TestChaosInstrumentation:
    CONFIG = ChaosConfig(peers=12, files=16, rounds=8, loss_rate=0.1,
                         churn_rate=0.4, seed=3)

    def test_recorder_does_not_change_outcomes(self):
        plain = run_chaos_point(self.CONFIG)
        instrumented = run_chaos_point(self.CONFIG, recorder=Recorder())
        assert instrumented.availability == plain.availability
        assert instrumented.mean_hops == plain.mean_hops
        assert instrumented.retrievals_incomplete \
            == plain.retrievals_incomplete

    def test_trace_covers_the_cell(self):
        recorder = Recorder()
        run_chaos_point(self.CONFIG, recorder=recorder)
        kinds = recorder.trace.kinds()
        assert kinds["chaos_cell_start"] == 1
        assert kinds["chaos_cell_end"] == 1
        assert kinds["dht_lookup"] > 0
        assert kinds["dht_publish"] > 0
        assert kinds["dht_retrieve"] > 0
        snapshot = recorder.registry.snapshot()
        assert snapshot["counters"]["dht.lookups"] > 0
        assert snapshot["histograms"]["dht.lookup.hops"]["count"] > 0

    def test_trace_deterministic_across_runs(self):
        def lines():
            recorder = Recorder(trace_sink=[])
            run_chaos_point(self.CONFIG, recorder=recorder)
            return _lines(recorder), recorder.registry.snapshot()
        assert lines() == lines()
