"""Download-volume-based direct trust (Section 3.1.2, Eqs. 4-5).

If user ``i`` downloads real content from user ``j``, ``i`` has implicit
grounds to trust ``j``.  Valid download volume weights each downloaded file's
size by ``i``'s evaluation of it::

    VD_ij = sum_{k in D_ij} E_ik * S_k     (Eq. 4)
    DM_ij = VD_ij / sum_k VD_ik            (Eq. 5)

so a gigabyte of files the downloader later judged fake (evaluation ~0)
contributes almost nothing, while well-evaluated bytes contribute fully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, KeysView, List, Optional, Set, Tuple

from ..lint.contracts import check_row_stochastic
from .config import DEFAULT_CONFIG, ReputationConfig
from .evaluation import EvaluationStore
from .journal_table import JournalSink, check_record
from .matrix import TrustMatrix, normalize_rows, retotal

__all__ = ["DownloadLedger", "valid_download_volume",
           "build_volume_trust_matrix", "VolumeTrustAccumulator"]


@dataclass(frozen=True)
class _DownloadEntry:
    file_id: str
    size_bytes: float
    timestamp: float


@dataclass
class DownloadLedger:
    """Record of who downloaded which file (with size) from whom.

    ``D_ij`` in Eq. 4 is exactly ``entries[(i, j)]``.
    """

    _entries: Dict[Tuple[str, str], List[_DownloadEntry]] = field(default_factory=dict)
    #: Downloader -> uploaders with at least one recorded entry; lets the
    #: incremental DM builder re-derive one downloader's row without
    #: scanning every (downloader, uploader) pair in the system.
    _uploaders: Dict[str, Set[str]] = field(default_factory=dict)
    #: Downloader -> file id -> uploaders it was fetched from; finds the
    #: pairs an evaluation of that file re-weights without scanning entries.
    _sources: Dict[str, Dict[str, Set[str]]] = field(default_factory=dict)
    #: ``(downloader, uploader)`` pairs whose entries changed since the
    #: last :meth:`clear_dirty`; the dirty downloaders derive from them.
    _dirty_pairs: Set[Tuple[str, str]] = field(default_factory=set)
    #: Write-ahead hook (see :mod:`~repro.core.journal_table`): mutators
    #: hand it their record before the mutation lands; the default only
    #: checks it.
    journal: JournalSink = field(default=check_record, repr=False,
                                 compare=False)

    def record_download(self, downloader: str, uploader: str, file_id: str,
                        size_bytes: float, timestamp: float = 0.0) -> None:
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
        if downloader == uploader:
            raise ValueError("a user cannot download from itself")
        self.journal("ledger.download", downloader, uploader, file_id,
                     size_bytes, timestamp)
        self._entries.setdefault((downloader, uploader), []).append(
            _DownloadEntry(file_id=file_id, size_bytes=size_bytes,
                           timestamp=timestamp))
        self._uploaders.setdefault(downloader, set()).add(uploader)
        self._sources.setdefault(downloader, {}).setdefault(
            file_id, set()).add(uploader)
        self._dirty_pairs.add((downloader, uploader))

    def downloads(self, downloader: str, uploader: str) -> List[Tuple[str, float]]:
        """``(file_id, size)`` pairs downloaded by ``downloader`` from ``uploader``."""
        return [(entry.file_id, entry.size_bytes)
                for entry in self._entries.get((downloader, uploader), ())]

    def downloads_with_time(self, downloader: str,
                            uploader: str) -> List[Tuple[str, float, float]]:
        """``(file_id, size, timestamp)`` triples for the pair."""
        return [(entry.file_id, entry.size_bytes, entry.timestamp)
                for entry in self._entries.get((downloader, uploader), ())]

    def uploaders_of(self, downloader: str) -> List[str]:
        """Uploaders this downloader got files from, sorted for determinism."""
        return sorted(self._uploaders.get(downloader, ()))

    def pairs(self) -> KeysView[Tuple[str, str]]:
        """Pairs with at least one entry (a live view: ``in`` is O(1))."""
        return self._entries.keys()

    def pairs_naming(self, downloader: str,
                     file_ids: Set[str]) -> Set[Tuple[str, str]]:
        """``(downloader, uploader)`` pairs with an entry on one of
        ``file_ids``."""
        sources = self._sources.get(downloader)
        if not sources:
            return set()
        return {(downloader, uploader)
                for file_id in sources.keys() & file_ids
                for uploader in sources[file_id]}

    def prune_older_than(self, cutoff_timestamp: float) -> int:
        """Drop download records last seen before ``cutoff_timestamp``."""
        self.journal("ledger.prune", cutoff_timestamp)
        removed = 0
        for key in list(self._entries):
            entries = self._entries[key]
            kept = [e for e in entries if e.timestamp >= cutoff_timestamp]
            dropped = len(entries) - len(kept)
            if not dropped:
                continue
            removed += dropped
            downloader, uploader = key
            self._dirty_pairs.add(key)
            sources = self._sources[downloader]
            for file_id in ({e.file_id for e in entries}
                            - {e.file_id for e in kept}):
                served = sources[file_id]
                served.discard(uploader)
                if not served:
                    del sources[file_id]
            if not sources:
                del self._sources[downloader]
            if kept:
                self._entries[key] = kept
            else:
                del self._entries[key]
                uploaders = self._uploaders.get(downloader)
                if uploaders is not None:
                    uploaders.discard(uploader)
                    if not uploaders:
                        del self._uploaders[downloader]
        return removed

    # ------------------------------------------------------------------ #
    # Delta tracking                                                     #
    # ------------------------------------------------------------------ #

    def dirty_pairs(self) -> Set[Tuple[str, str]]:
        """``(downloader, uploader)`` pairs whose entries changed since the
        last clear."""
        return set(self._dirty_pairs)

    def dirty_downloaders(self) -> Set[str]:
        """Downloaders whose DM row inputs changed since the last clear."""
        return {downloader for downloader, _ in self._dirty_pairs}

    @property
    def has_dirty(self) -> bool:
        return bool(self._dirty_pairs)

    def clear_dirty(self) -> None:
        self._dirty_pairs.clear()

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._entries.values())


def valid_download_volume(ledger: DownloadLedger, store: EvaluationStore,
                          downloader: str, uploader: str,
                          now: Optional[float] = None,
                          half_life: Optional[float] = None) -> float:
    """Eq. 4: evaluation-weighted bytes ``downloader`` got from ``uploader``.

    Files the downloader has not (yet) evaluated contribute zero — the paper
    counts only *valid* volume, and validity is established by evaluation.

    With ``now`` and ``half_life`` given, each download's contribution
    additionally decays exponentially with age (``0.5 ** (age/half_life)``)
    — a smooth extension of the Section 4.3 interval-pruning rule that lets
    trust track *recent* behaviour without a hard cliff.
    """
    if (half_life is None) != (now is None):
        raise ValueError("now and half_life must be given together")
    if half_life is not None and half_life <= 0:
        raise ValueError("half_life must be positive")
    total = 0.0
    for file_id, size_bytes, timestamp in ledger.downloads_with_time(
            downloader, uploader):
        evaluation = store.value(downloader, file_id)
        if evaluation is None:
            continue
        contribution = evaluation * size_bytes
        if half_life is not None:
            age = max(now - timestamp, 0.0)  # type: ignore[operator]
            contribution *= 0.5 ** (age / half_life)
        total += contribution
    return total


def build_volume_trust_matrix(ledger: DownloadLedger, store: EvaluationStore,
                              config: ReputationConfig = DEFAULT_CONFIG,
                              now: Optional[float] = None,
                              half_life: Optional[float] = None
                              ) -> TrustMatrix:
    """Eqs. 4-5: the row-normalised volume-based one-step matrix ``DM``.

    ``now``/``half_life`` enable the recency-decayed Eq. 4 variant (see
    :func:`valid_download_volume`).
    """
    raw: Dict[str, Dict[str, float]] = {}
    for downloader, uploader in ledger.pairs():
        volume = valid_download_volume(ledger, store, downloader, uploader,
                                       now=now, half_life=half_life)
        if volume > 0.0:
            raw.setdefault(downloader, {})[uploader] = volume
    matrix = normalize_rows(raw)
    check_row_stochastic(matrix, name="DM")
    return matrix


class VolumeTrustAccumulator:
    """Patch-based DM builder: re-sums only the pairs whose inputs moved.

    ``VD_ij`` (Eq. 4) depends only on the entries ``D_ij`` and on ``i``'s
    own evaluations of the files they name, so the accumulator caches the
    raw volume of every ledger pair and re-sums a pair — with
    :func:`valid_download_volume`, over the same entries in the same
    left-to-right order — only when the ledger marked it dirty (a new
    download or a prune), or when one of ``D_ij``'s entries names a file
    whose evaluation *by* ``i`` the store marked dirty
    (:meth:`DownloadLedger.pairs_naming` finds those from the ledger's
    per-downloader file index).  Only rows holding a re-summed pair are
    rebuilt in :attr:`raw`, from the cache in
    :meth:`DownloadLedger.uploaders_of` order, and re-totalled; every other
    row's volumes are exactly what a full pass would re-sum, so a patched
    DM equals a rebuilt one bit for bit.  No normalised DM is kept: the
    pipeline's Eq. 7 publish divides each raw row by its ``math.fsum`` in
    :attr:`totals` (Eq. 5), and :attr:`matrix` normalises :attr:`raw` when
    read.  A refresh still reports every dirty downloader and dirty user as
    touched: their TM rows are the ones Eq. 7 re-applies to.

    The recency-decayed (``now``/``half_life``) Eq. 4 variant stays on the
    full :func:`build_volume_trust_matrix` path — under decay every row is a
    function of ``now``, and there is no delta to exploit.
    """

    #: Key of this dimension in :meth:`TrustPipeline.dimension_matrices`.
    dimension = "volume"
    #: The span :meth:`TrustPipeline.refresh` times this dimension under.
    span = "pipeline.volume_trust"

    def __init__(self, ledger: DownloadLedger, store: EvaluationStore):
        self._ledger = ledger
        self._store = store
        #: ``(downloader, uploader)`` -> raw ``VD_ij`` for every ledger pair.
        self._volumes: Dict[Tuple[str, str], float] = {}
        #: Un-normalised VD rows: a downloader's positive volumes.
        self.raw: Dict[str, Dict[str, float]] = {}
        #: row -> ``math.fsum`` of its :attr:`raw` values, Eq. 5's divisor.
        self.totals: Dict[str, float] = {}

    @property
    def matrix(self) -> TrustMatrix:
        """DM (Eq. 5): :attr:`raw` row-normalised, built afresh per read."""
        matrix = normalize_rows(self.raw)
        check_row_stochastic(matrix, name="DM")
        return matrix

    def refresh(self) -> Set[str]:
        """Re-sum the pairs whose downloads or evaluations moved; returns
        the dirty downloaders and dirty users."""
        ledger = self._ledger
        stale = ledger.dirty_pairs()
        evaluated: Dict[str, Set[str]] = {}
        for user_id, file_id in self._store.dirty_pairs():
            evaluated.setdefault(user_id, set()).add(file_id)
        for downloader, file_ids in evaluated.items():
            stale |= ledger.pairs_naming(downloader, file_ids)
        self._resum(stale)
        return ledger.dirty_downloaders() | evaluated.keys()

    def rebuild(self) -> Set[str]:
        """Full pass: forget everything and re-sum every pair."""
        stale_rows = set(self.raw)
        self.raw = {}
        self.totals = {}
        self._volumes = {}
        return self._resum(set(self._ledger.pairs())) | stale_rows

    def _resum(self, pairs: Set[Tuple[str, str]]) -> Set[str]:
        """Re-sum ``pairs`` and rebuild their raw rows; returns the rows."""
        ledger = self._ledger
        volumes = self._volumes
        raw = self.raw
        rows: Set[str] = set()
        for pair in pairs:
            downloader, uploader = pair
            rows.add(downloader)
            if pair in ledger.pairs():
                volumes[pair] = valid_download_volume(
                    ledger, self._store, downloader, uploader)
            else:
                volumes.pop(pair, None)
        for downloader in sorted(rows):
            raw_row: Dict[str, float] = {}
            for uploader in ledger.uploaders_of(downloader):
                volume = volumes[(downloader, uploader)]
                if volume > 0.0:
                    raw_row[uploader] = volume
            if raw_row:
                raw[downloader] = raw_row
            else:
                raw.pop(downloader, None)
        retotal(raw, self.totals, rows)
        return rows
