"""Pinned digests of three outputs shaped by simulator, trace and monitor
constants.

* the default :class:`~repro.obs.monitor.Monitor` alert stream over an
  observed three-day ``collusion_stress(7)`` run (four alerts from the
  whitewash, fake-outbreak and collusion-ring detectors): every detector
  threshold, the consumption delay, the §3.4 offset and quota and the
  initial replicas decide which alerts fire and when;
* a small :class:`~repro.traces.generator.MazeTraceGenerator` trace, its
  records plus the initial holdings: the Zipf exponent, activity sigma,
  initial holders, departure fraction and the catalog's size and lifetime
  scales all draw from its one RNG;
* one :func:`~repro.simulator.chaos.run_chaos_point` cell with message loss
  and churn, so crashes, rejoins and the repair sweeps every third round
  all run.

Each constant was produced by running the digest function beside it at
the commit before these values stopped being options (when each was still
a config field or keyword argument at its default), and printing its hex
digest.  A change that alters one on purpose must recompute it the same
way and say why.
"""

import dataclasses
import hashlib
import json

from repro.baselines.multidimensional import MultiDimensionalMechanism
from repro.core import ReputationConfig
from repro.obs.monitor import Monitor
from repro.obs.recorder import Recorder
from repro.simulator.chaos import ChaosConfig, run_chaos_point
from repro.simulator.scenarios import collusion_stress
from repro.simulator.simulation import FileSharingSimulation
from repro.traces.generator import MazeTraceGenerator, TraceParameters

ALERT_STREAM_DIGEST = (
    "79ebbdc17afd71e146c73b76121c2c2882a8d4e8f0304175ca54180b4c8332d9")
TRACE_DIGEST = (
    "e33be8da27c498ae6df381a947f83841f17cdf9d7250607c8972e09ba46fd00b")
CHAOS_CELL_DIGEST = (
    "0fc4f6044a4271dfe15957a6d734a7aca35c76cda534ca22230a15fe53ec6822")


def _sha256(payload) -> str:
    encoded = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def alert_stream_digest(seed=7):
    """sha256 over the live alerts of an observed ``collusion_stress`` run."""
    config = collusion_stress(seed)
    mechanism = MultiDimensionalMechanism(ReputationConfig(
        retention_saturation_seconds=config.duration_seconds / 3))
    recorder = Recorder()
    monitor = Monitor().attach(recorder)
    FileSharingSimulation(config, mechanism, recorder=recorder).run()
    monitor.finish()
    alerts = [{"t": alert.t, **alert.to_fields()} for alert in monitor.alerts]
    return _sha256(alerts), len(alerts)


def trace_digest():
    """sha256 over a small generated trace and its initial holdings."""
    generated = MazeTraceGenerator(TraceParameters(
        num_users=60, num_files=80, num_actions=900, trace_days=10.0,
        library_size=4, seed=13)).generate()
    records = [[r.uploader_id, r.downloader_id, r.timestamp,
                r.content_hash, r.filename, r.size_bytes, r.is_fake]
               for r in generated.trace]
    return _sha256({
        "records": records,
        "initial_holdings": generated.initial_holdings,
        "lifetimes": generated.lifetimes,
    }), len(records)


def chaos_cell_digest():
    """sha256 over one lossy, churning chaos cell's full result."""
    result = run_chaos_point(ChaosConfig(peers=12, files=16, rounds=10,
                                         loss_rate=0.1, churn_rate=0.5,
                                         seed=3))
    return _sha256(dataclasses.asdict(result)), result.repairs


def test_alert_stream_matches_pinned_digest():
    digest, count = alert_stream_digest()
    assert count > 0
    assert digest == ALERT_STREAM_DIGEST


def test_generated_trace_matches_pinned_digest():
    digest, count = trace_digest()
    assert count > 0
    assert digest == TRACE_DIGEST


def test_chaos_cell_matches_pinned_digest():
    digest, repairs = chaos_cell_digest()
    assert repairs > 0
    assert digest == CHAOS_CELL_DIGEST
