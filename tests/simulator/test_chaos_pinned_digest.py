"""A pinned digest of a high-stress ``repro chaos`` sweep.

The sweep is ``repro chaos --loss 0.5 0.8 --churn 0.3 --peers 16 --files 24
--rounds 10 --seed 11``: six cells (loss 0, 0.5, 0.8 times churn 0, 0.3).
Half or more of all messages drop and a peer crashes or rejoins in about
a third of the rounds, so ring repair after failures, routing around dead
fingers, quorum reads and replica repair shape every number.  The digest
covers each cell's availability, hops, scores and comparisons with the
fault-free cell, and its overlay's ``MessageTally`` counts and bytes.

The constant was produced by running :func:`chaos_sweep_digest` at the
commit before membership changes repaired the ring in place and replica
sets came from one bisect, and printing its hex digest.  A change that
alters it on purpose must recompute it the same way and say why.
"""

import dataclasses
import hashlib
import json

from repro.dht.overlay_service import EvaluationOverlay
from repro.simulator import chaos

CHAOS_SWEEP_DIGEST = (
    "59cc85ecd02edf5b45e0eac8c4a226bd542744349983371c822f6981114f17a1")


def chaos_sweep_digest(monkeypatch):
    """sha256 over the sweep's per-cell results and message tallies."""
    overlays = []

    class RecordingOverlay(EvaluationOverlay):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            overlays.append(self)

    monkeypatch.setattr(chaos, "EvaluationOverlay", RecordingOverlay)
    results = chaos.run_chaos_sweep([0.5, 0.8], [0.3], peers=16, files=24,
                                    rounds=10, seed=11)
    assert len(overlays) == len(results) == 6
    cells = []
    for result, overlay in zip(results, overlays):
        tally = overlay.tally
        cells.append({
            "result": dataclasses.asdict(result),
            "tally": tally.snapshot(),
            "bytes": {kind.value: size for kind, size in sorted(
                tally.bytes_sent.items(), key=lambda item: item[0].value)},
        })
    encoded = json.dumps(cells, sort_keys=True, default=repr)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def test_chaos_sweep_matches_pinned_digest(monkeypatch):
    assert chaos_sweep_digest(monkeypatch) == CHAOS_SWEEP_DIGEST
