"""A pinned digest of one DHT-backed simulation run.

Two simulated hours of ``chaos_storm(1)`` over :class:`DHTBackedMechanism`
with a 5% message-drop plan seeded like the scenario: publication,
retrieval, repair, finger routing and service differentiation all shape
the outcome.  The digest covers every per-class metric, the overlay's
message tally and the published ``TM``/``RM`` checksums, so a rewrite of
the ring's finger tables, the signed payloads or the service factor that
shifts one message or one float changes it.

The constant was produced by running :func:`dht_simulation_digest` at the
commit before finger tables were built one bisect per distinct owner,
payloads were cached and the best reputation was read once per request,
and printing its hex digest.  A change that alters it on purpose must
recompute it the same way and say why.
"""

import dataclasses
import hashlib
import json

from repro.core import ReputationConfig
from repro.dht.deployment import DHTBackedMechanism
from repro.dht.faults import FaultPlan
from repro.simulator.scenarios import chaos_storm
from repro.simulator.simulation import FileSharingSimulation

DHT_SIMULATION_DIGEST = (
    "09636b3f14ac021c515364fb82c7669a7cd3d114ea3cb2a9ce559e25d662b616")


def dht_simulation_digest(world=1, hours=2.0):
    """sha256 over a DHT-backed ``chaos_storm`` run's observable outcome."""
    config = dataclasses.replace(chaos_storm(world),
                                 duration_seconds=hours * 3600.0)
    mechanism = DHTBackedMechanism(
        ReputationConfig(
            retention_saturation_seconds=config.duration_seconds / 3),
        faults=FaultPlan(drop_probability=0.05, seed=config.seed))
    simulation = FileSharingSimulation(config, mechanism)
    metrics = simulation.run()
    summary = {
        "classes": {label: dataclasses.asdict(stats)
                    for label, stats in sorted(metrics.per_class.items())},
        "requests": metrics.total_requests,
        "judgements": [metrics.blind_judgements,
                       metrics.informed_judgements],
        "removal_latencies": metrics.fake_removal_latencies,
        "events": simulation.engine.events_processed,
        "tally": mechanism.overlay.tally.snapshot(),
        "bytes": {kind.value: size for kind, size in sorted(
            mechanism.overlay.tally.bytes_sent.items(),
            key=lambda item: item[0].value)},
        "checksums": mechanism.system.pipeline.checksums(),
    }
    encoded = json.dumps(summary, sort_keys=True, default=repr)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def test_dht_backed_simulation_matches_pinned_digest():
    assert dht_simulation_digest() == DHT_SIMULATION_DIGEST
