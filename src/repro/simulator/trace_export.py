"""Export a simulation's download history as a :class:`DownloadTrace`.

Bridges the simulator and the trace toolchain: any simulated run can be
persisted in the Maze log schema and fed through the coverage replay,
trace statistics or the CLI — e.g. to ask "what request coverage would the
file-trust dimension have achieved on *this* simulated workload?".

The collector subscribes by wrapping the mechanism passed to the
simulation, so it sees exactly the downloads the mechanism saw.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..baselines.base import ReputationMechanism
from ..traces.records import DownloadRecord, DownloadTrace

__all__ = ["TraceRecorder"]


class TraceRecorder(ReputationMechanism):
    """A mechanism wrapper that records every download into a trace.

    All signals and queries pass through to the ``inner`` mechanism
    untouched; the recorder only observes.  Ground-truth fake flags are
    filled in lazily via :meth:`annotate_fakes` (the recorder itself never
    peeks at the registry, mirroring what a log server can see).
    """

    name = "trace-recorder"

    def __init__(self, inner: ReputationMechanism):
        self.inner = inner
        self.trace = DownloadTrace()

    # ------------------------------------------------------------------ #
    # Observed signals (forwarded)                                       #
    # ------------------------------------------------------------------ #

    def record_download(self, downloader: str, uploader: str, file_id: str,
                        size_bytes: float, timestamp: float = 0.0) -> None:
        self.trace.append(DownloadRecord(
            uploader_id=uploader, downloader_id=downloader,
            timestamp=timestamp, content_hash=file_id,
            filename=file_id, size_bytes=size_bytes))
        self.inner.record_download(downloader, uploader, file_id,
                                   size_bytes, timestamp)

    def record_vote(self, voter: str, file_id: str, vote: float,
                    timestamp: float = 0.0) -> None:
        self.inner.record_vote(voter, file_id, vote, timestamp)

    def record_retention(self, user: str, file_id: str,
                         retention_seconds: float,
                         timestamp: float = 0.0) -> None:
        self.inner.record_retention(user, file_id, retention_seconds,
                                    timestamp)

    def record_rank(self, rater: str, ratee: str, rating: float) -> None:
        self.inner.record_rank(rater, ratee, rating)

    def record_blacklist(self, user: str, target: str) -> None:
        self.inner.record_blacklist(user, target)

    def record_deletion(self, user: str, file_id: str,
                        timestamp: float = 0.0) -> None:
        self.inner.record_deletion(user, file_id, timestamp)

    def record_upload_outcome(self, uploader: str, positive: bool,
                              timestamp: float = 0.0) -> None:
        self.inner.record_upload_outcome(uploader, positive, timestamp)

    # ------------------------------------------------------------------ #
    # Queries (forwarded)                                                #
    # ------------------------------------------------------------------ #

    def refresh(self) -> None:
        self.inner.refresh()

    def reputation(self, observer: str, target: str) -> float:
        return self.inner.reputation(observer, target)

    def best_reputation(self, observer: str, targets: Iterable[str]) -> float:
        return self.inner.best_reputation(observer, targets)

    def is_distrusted(self, observer: str, target: str) -> bool:
        return self.inner.is_distrusted(observer, target)

    def file_score(self, observer: str, file_id: str) -> Optional[float]:
        return self.inner.file_score(observer, file_id)

    def global_scores(self) -> Dict[str, float]:
        return self.inner.global_scores()

    # ------------------------------------------------------------------ #
    # Export                                                             #
    # ------------------------------------------------------------------ #

    def annotate_fakes(self, fake_flags: Dict[str, bool]) -> DownloadTrace:
        """Return a copy of the trace with ground-truth fake flags set."""
        annotated = DownloadTrace()
        for record in self.trace:
            annotated.append(DownloadRecord(
                uploader_id=record.uploader_id,
                downloader_id=record.downloader_id,
                timestamp=record.timestamp,
                content_hash=record.content_hash,
                filename=record.filename,
                size_bytes=record.size_bytes,
                is_fake=fake_flags.get(record.content_hash, False)))
        return annotated
