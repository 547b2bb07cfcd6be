"""Section 4.2 security machinery.

Attack 1 (forged/distorted third-party evaluations) is prevented by the
signatures in :mod:`repro.dht.crypto` — :func:`attempt_forged_publication`
demonstrates the rejection path end to end.

Attack 3 (a user forging his *own* evaluations to mirror a reputable user
and steal their trust) cannot be caught by signatures — the forger signs his
own lies.  Following Swamynathan et al. [14], a **virtual user** examines a
suspect's evaluation list repeatedly under fresh identities; "if there are
great differences between two examinations, it means this user has forged
his evaluations".  An honest user answers every querier identically from a
stable local store; a mimic that tailors its list to whoever asks (the
profitable strategy, since matching the querier maximises Eq. 2 similarity)
answers two different probes very differently — and is flagged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.stats import ordered_sum
from .messages import EvaluationInfo
from .overlay_service import EvaluationOverlay

__all__ = ["attempt_forged_publication", "make_mimic_responder",
           "ExaminationReport", "ProactiveExaminer"]


def attempt_forged_publication(overlay: EvaluationOverlay, attacker_id: str,
                               victim_id: str, file_id: str,
                               forged_evaluation: float,
                               now: float) -> bool:
    """Attacker publishes an evaluation *as the victim*; returns acceptance.

    The attacker cannot produce the victim's signature, so the record is
    stored with an invalid signature and dropped at retrieval (step 3
    verification).  Returns True if the forged evaluation survived — which
    a correct deployment must never allow.
    """
    info = EvaluationInfo(file_id=file_id, owner_id=victim_id,
                          evaluation=forged_evaluation)
    # The best the attacker can do is sign with his *own* key.
    forged = info.with_signature(
        overlay.authority.sign(attacker_id, info.payload()))
    from .id_space import hash_key  # local import to avoid cycle at top
    from .messages import IndexRecord
    key = hash_key(f"file:{file_id}")
    record = IndexRecord(file_id=file_id, owner_id=victim_id,
                         evaluation=forged)
    for replica in overlay.network.replica_nodes(key, overlay.replication):
        replica.storage.put(key, victim_id, record, now, overlay.record_ttl)
    retrieved = overlay.retrieve(attacker_id, file_id, now)
    return victim_id in retrieved.evaluations


def make_mimic_responder(overlay: EvaluationOverlay):
    """The attack-3 strategy: answer each querier with the querier's list.

    Mirroring the *querier* maximises file-trust similarity (Eq. 2 distance
    zero), making this the strongest evaluation-forgery strategy against
    pairwise trust.
    """
    def responder(querier_id: str) -> Dict[str, float]:
        return overlay.local_list(querier_id)
    return responder


@dataclass(frozen=True)
class ExaminationReport:
    """Result of proactively examining one suspect."""

    suspect_id: str
    #: Mean absolute difference between answers given to the two probes on
    #: commonly-reported files; None when the probes shared no files.
    divergence: Optional[float]
    #: Jaccard overlap of the file sets reported to the two probes.
    overlap: float
    flagged: bool


class ProactiveExaminer:
    """Virtual-user examination of evaluation lists (Swamynathan-style)."""

    #: A suspect is flagged when its two answers share less than this
    #: Jaccard overlap of files, or differ by more than this mean absolute
    #: evaluation on the files they share.
    OVERLAP_THRESHOLD = 0.5
    DIVERGENCE_THRESHOLD = 0.3

    def __init__(self, overlay: EvaluationOverlay, seed: int = 17):
        self.overlay = overlay
        self._rng = random.Random(seed)
        self._probe_counter = 0

    def _fresh_probe_identity(self, catalog_files: Sequence[str]) -> str:
        """Create a virtual user with a random plausible evaluation list."""
        self._probe_counter += 1
        probe_id = f"__probe-{self._probe_counter:04d}"
        self.overlay.register_user(probe_id)
        sample_size = min(len(catalog_files),
                          max(3, len(catalog_files) // 4))
        sampled = self._rng.sample(list(catalog_files), sample_size)
        now = 0.0
        for file_id in sampled:
            self.overlay.publish(probe_id, file_id,
                                 self._rng.random(), now)
        return probe_id

    def examine(self, suspect_id: str,
                catalog_files: Sequence[str]) -> ExaminationReport:
        """Probe ``suspect_id`` twice under fresh identities and compare."""
        probe_a = self._fresh_probe_identity(catalog_files)
        probe_b = self._fresh_probe_identity(catalog_files)
        answer_a = self.overlay.fetch_evaluation_list(probe_a, suspect_id)
        answer_b = self.overlay.fetch_evaluation_list(probe_b, suspect_id)

        files_a, files_b = set(answer_a), set(answer_b)
        union = files_a | files_b
        common = files_a & files_b
        overlap = len(common) / len(union) if union else 1.0
        divergence: Optional[float] = None
        if common:
            divergence = ordered_sum(abs(answer_a[f] - answer_b[f])
                                     for f in sorted(common)) / len(common)

        flagged = overlap < self.OVERLAP_THRESHOLD or (
            divergence is not None
            and divergence > self.DIVERGENCE_THRESHOLD)
        if not answer_a and not answer_b:
            # Nothing to examine; an empty list is not evidence of forgery.
            flagged = False
        return ExaminationReport(suspect_id=suspect_id,
                                 divergence=divergence,
                                 overlap=overlap, flagged=flagged)
