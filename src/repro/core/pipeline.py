"""The incremental trust pipeline: delta-in, patched-matrices-out.

The seed's façade cached ``TM``/``RM`` behind a boolean "something changed"
flag: any write threw every matrix away and the next query rebuilt the world.
:class:`TrustPipeline` replaces that with a delta pipeline in which the
stores' *dirty sets* are the one record of what changed:

1. the stores (:class:`~repro.core.evaluation.EvaluationStore`,
   :class:`~repro.core.volume_trust.DownloadLedger`,
   :class:`~repro.core.user_trust.UserTrustStore`) accumulate dirty sets
   — which files, downloaders and raters changed since the last refresh;
   :attr:`TrustPipeline.has_dirty` reads them, and so does the façade's
   freshness check;
2. each enabled dimension's accumulator (:class:`FileTrustAccumulator`,
   :class:`VolumeTrustAccumulator`, :class:`UserTrustAccumulator`) is built
   over its own stores, reads their dirt and re-derives only the rows/pairs
   incident to it; the pipeline clears the dirt once every dimension has
   consumed it;
3. the integrated ``TM`` is patched row-wise (Eq. 7 re-applied to exactly
   the dirty rows) and published copy-on-write, so earlier snapshots stay
   stable while each refresh has a fresh matrix identity;
4. ``RM = TM^n`` (Eq. 8) goes through a pluggable
   :mod:`~repro.core.matrix_backend`, resolved only when a power actually
   runs; for the paper's default ``n = 1`` RM *is* the patched ``TM``, no
   backend is consulted, and the step costs nothing.

The hard bar, enforceable at runtime behind ``REPRO_CHECK_INVARIANTS``:
an incremental refresh produces matrices **bit-identical** to a full
rebuild.  Every arithmetic path is shared with or order-canonicalised
against the full builders (one row normaliser, sorted-key accumulation), so
equality is exact ``==``, not tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from ..lint.contracts import (check_matrices_equal, check_row_stochastic,
                              check_simplex, contracts_enabled)
from ..obs.recorder import NULL_RECORDER, NullRecorder
from .config import DEFAULT_CONFIG, ReputationConfig
from .evaluation import EvaluationStore
from .file_trust import FileTrustAccumulator
from .matrix import TrustMatrix
from .matrix_backend import resolve_backend
from .multitrust import compute_reputation_matrix
from .user_trust import UserTrustAccumulator, UserTrustStore
from .volume_trust import DownloadLedger, VolumeTrustAccumulator

__all__ = ["TrustPipeline", "RefreshStats", "RefreshView"]

_Accumulator = Union[FileTrustAccumulator, VolumeTrustAccumulator,
                     UserTrustAccumulator]


@dataclass(frozen=True)
class RefreshView:
    """Zero-copy window onto the matrices of one refresh.

    Holds references to the pipeline's published ``TM`` and ``RM`` —
    building one allocates nothing beyond the dataclass itself, and
    consumers read rows through :meth:`TrustMatrix.row_view`.  The
    per-refresh timeline instrumentation samples reputations and trust
    edges through this view, so observability never copies full matrices.
    """

    trust: TrustMatrix
    reputation: TrustMatrix

    def top_trust_edges(self, per_row: int = 6, min_value: float = 1e-9
                        ) -> Iterator[Tuple[str, str, float]]:
        """Strongest ``per_row`` out-edges of ``TM`` per truster, sorted.

        Rows iterate in sorted truster order; within a row, edges sort by
        descending value then trustee id — fully deterministic.
        """
        if per_row < 1:
            raise ValueError(f"per_row must be >= 1, got {per_row}")
        for truster in sorted(self.trust.row_ids()):
            row = self.trust.row_view(truster)
            strongest = sorted(row.items(),
                               key=lambda item: (-item[1], item[0]))
            for trustee, value in strongest[:per_row]:
                if value >= min_value:
                    yield truster, trustee, value


@dataclass(frozen=True)
class RefreshStats:
    """What one :meth:`TrustPipeline.refresh` actually did.

    ``mode`` is ``"full"`` (first refresh or forced), ``"incremental"``
    (delta-driven patch) or ``"noop"`` (no dirt to consume).  Row counts
    refer to the integrated ``TM``; ``rebuild_ratio`` is the fraction of
    its rows the refresh re-derived — the number the incremental design
    exists to keep small.  ``backend`` names the matmul backend that
    computed ``RM``, or ``"none"`` when ``n = 1`` and no product ran.
    """

    mode: str
    backend: str
    dirty_files: int
    dirty_rows_file: int
    dirty_rows_volume: int
    dirty_rows_user: int
    rows_rebuilt: int
    total_rows: int

    @property
    def rebuild_ratio(self) -> float:
        if self.total_rows <= 0:
            return 0.0
        return min(self.rows_rebuilt / self.total_rows, 1.0)


class TrustPipeline:
    """Owns the incremental compute path from stores to ``TM``/``RM``.

    The pipeline never mutates a published matrix: each refresh patches
    through :meth:`TrustMatrix.copy_with_rows`, so callers holding a
    :class:`RefreshView` from an earlier refresh keep a stable snapshot
    while ``pipeline.trust`` moves on.  ``version`` increments on every
    refresh that consumed dirt — cache keys for derived structures (tier
    views, step-overridden RM powers) hang off it.
    """

    def __init__(self, evaluations: EvaluationStore, ledger: DownloadLedger,
                 user_trust: UserTrustStore,
                 config: ReputationConfig = DEFAULT_CONFIG,
                 recorder: NullRecorder = NULL_RECORDER):
        self.config = config
        self.recorder = recorder
        self.evaluations = evaluations
        self.ledger = ledger
        self.user_trust = user_trust
        dimensions: List[Tuple[float, _Accumulator]] = [
            (config.alpha, FileTrustAccumulator(evaluations, config)),
            (config.beta, VolumeTrustAccumulator(ledger, evaluations)),
            (config.gamma, UserTrustAccumulator(user_trust))]
        #: ``(weight, accumulator)`` per enabled dimension, in Eq. 7 order.
        self._dimensions = [(weight, accumulator)
                            for weight, accumulator in dimensions
                            if weight > 0]
        self._trust = TrustMatrix()
        self._reputation = TrustMatrix()
        #: RM powers for step overrides, keyed by ``steps``; cleared by
        #: every refresh that consumed dirt.
        self._power_cache: Dict[int, TrustMatrix] = {}
        self._initialized = False
        #: Monotone refresh counter; bumps whenever matrices re-publish.
        self.version = 0
        self.last_stats: Optional[RefreshStats] = None

    # ------------------------------------------------------------------ #
    # Published state                                                    #
    # ------------------------------------------------------------------ #

    @property
    def trust(self) -> TrustMatrix:
        """The most recently published integrated ``TM`` (Eq. 7)."""
        return self._trust

    @property
    def reputation(self) -> TrustMatrix:
        """The most recently published ``RM = TM^n`` (Eq. 8)."""
        return self._reputation

    def view(self) -> RefreshView:
        """Zero-copy view of the current published pair (no refresh)."""
        return RefreshView(trust=self._trust, reputation=self._reputation)

    @property
    def has_dirty(self) -> bool:
        """Whether a :meth:`refresh` has anything to consume.

        True before the first refresh and whenever a store holds
        unconsumed deltas.
        """
        return (not self._initialized or self.evaluations.has_dirty
                or self.ledger.has_dirty or self.user_trust.has_dirty)

    def dimension_matrices(self) -> Dict[str, TrustMatrix]:
        """The current per-dimension one-step matrices, keyed by dimension.

        ``{"file": FM, "volume": DM, "user": UM}``; a dimension disabled by
        a zero weight maps to an empty matrix.  Tests and diagnostics read
        the dimensions here instead of reaching into accumulator internals.
        """
        matrices = {dimension: TrustMatrix()
                    for dimension in ("file", "volume", "user")}
        matrices.update((accumulator.dimension, accumulator.matrix)
                        for _weight, accumulator in self._dimensions)
        return matrices

    # ------------------------------------------------------------------ #
    # Refresh                                                            #
    # ------------------------------------------------------------------ #

    def refresh(self, force_full: bool = False) -> RefreshView:
        """Consume all accumulated deltas and publish fresh ``TM``/``RM``.

        With nothing to consume this is a no-op returning the current
        matrices *by identity*; otherwise both matrices get a new identity
        (copy-on-write), even if every value survived unchanged — callers
        use identity to detect "a refresh happened here".
        """
        if not (force_full or self.has_dirty):
            self.recorder.inc("pipeline.noop_refreshes")
            return self.view()

        full = force_full or not self._initialized
        dirty_files = len(self.evaluations.dirty_files())
        with self.recorder.span("pipeline.refresh") as span:
            touched = {accumulator.dimension: (accumulator.rebuild() if full
                                               else accumulator.refresh())
                       for _weight, accumulator in self._dimensions}
            dirty_rows: Set[str] = set().union(*touched.values())
            self._publish_trust(dirty_rows)
            self._reputation, backend = self._power(
                self._trust, self.config.multitrust_steps, self.recorder)
            span.count("rows_rebuilt", len(dirty_rows))
            span.count("dirty_files", dirty_files)

        self.evaluations.clear_dirty()
        self.ledger.clear_dirty()
        self.user_trust.clear_dirty()
        self._power_cache.clear()
        self._power_cache[self.config.multitrust_steps] = self._reputation
        self._initialized = True
        self.version += 1

        stats = RefreshStats(
            mode="full" if full else "incremental",
            backend=backend,
            dirty_files=dirty_files,
            dirty_rows_file=len(touched.get("file", ())),
            dirty_rows_volume=len(touched.get("volume", ())),
            dirty_rows_user=len(touched.get("user", ())),
            rows_rebuilt=len(dirty_rows),
            total_rows=len(self._trust.row_ids()),
        )
        self.last_stats = stats
        self._record(stats)
        if not full:
            self._verify_against_full_rebuild()
        return self.view()

    def checksums(self) -> Dict[str, str]:
        """Bit-exact digests of the published ``TM``/``RM`` pair.

        Two pipelines agree on these iff their matrices are exactly equal —
        the recovery tooling compares digests instead of shipping matrices,
        and ``repro recover`` prints them so a recovered node can be
        checked against a live one from the command line.
        """
        return {"trust": self._trust.checksum(),
                "reputation": self._reputation.checksum()}

    def reputation_at(self, steps: int) -> TrustMatrix:
        """``TM^steps`` for a step override, cached until the next refresh."""
        cached = self._power_cache.get(steps)
        if cached is None:
            cached, _backend = self._power(self._trust, steps,
                                           self.recorder)
            self._power_cache[steps] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Internals                                                          #
    # ------------------------------------------------------------------ #

    def _publish_trust(self, dirty_rows: Set[str]) -> None:
        """Re-apply Eq. 7 to exactly ``dirty_rows``; publish copy-on-write.

        Each row is one dict, built by :meth:`TrustMatrix.weighted_row`
        and adopted as it is by :meth:`TrustMatrix.copy_with_rows`.
        """
        check_simplex((self.config.alpha, self.config.beta, self.config.gamma),
                      name="(alpha, beta, gamma)")
        dimensions = [(weight, accumulator.matrix)
                      for weight, accumulator in self._dimensions]
        self._trust = self._trust.copy_with_rows(
            {i: TrustMatrix.weighted_row(dimensions, i)
             for i in sorted(dirty_rows)})
        check_row_stochastic(self._trust, name="TM", strict=False)

    def _power(self, trust: TrustMatrix, steps: int,
               recorder: NullRecorder) -> Tuple[TrustMatrix, str]:
        """``trust^steps`` and the name of the backend that computed it.

        A backend is resolved — and ``"auto"``'s O(entries) scan paid —
        only when a product actually runs.  At ``steps == 1`` RM *is* TM
        and the name is ``"none"``.
        """
        if steps == 1:
            return trust, "none"
        backend = resolve_backend(self.config.matmul_backend, trust)
        return compute_reputation_matrix(
            trust, steps, self.config, recorder=recorder,
            backend=backend), backend.name

    def _verify_against_full_rebuild(self) -> None:
        """Contracts-gated hard bar: patched state == full rebuild, exactly."""
        if not contracts_enabled():
            return
        from .integration import build_one_step_matrix

        full_trust = build_one_step_matrix(
            self.evaluations, self.ledger, self.user_trust, self.config)
        check_matrices_equal(self._trust, full_trust, name="TM(incremental)")
        # Same backend choice as the incremental path: the csr and dense
        # products agree only to tolerance, and the bar here is exact.
        full_reputation, _backend = self._power(
            full_trust, self.config.multitrust_steps, NULL_RECORDER)
        check_matrices_equal(self._reputation, full_reputation,
                             name="RM(incremental)")

    def _record(self, stats: RefreshStats) -> None:
        recorder = self.recorder
        if not recorder.enabled:
            return
        recorder.event("pipeline_refresh", mode=stats.mode,
                       backend=stats.backend, dirty_files=stats.dirty_files,
                       dirty_rows_file=stats.dirty_rows_file,
                       dirty_rows_volume=stats.dirty_rows_volume,
                       dirty_rows_user=stats.dirty_rows_user,
                       rows_rebuilt=stats.rows_rebuilt,
                       total_rows=stats.total_rows,
                       rebuild_ratio=stats.rebuild_ratio)
        recorder.inc("pipeline.refreshes")
        if stats.mode == "full":
            recorder.inc("pipeline.full_rebuilds")
        recorder.observe("pipeline.rows_rebuilt", stats.rows_rebuilt)
        recorder.observe("pipeline.rebuild_ratio", stats.rebuild_ratio)
        recorder.gauge("pipeline.total_rows", stats.total_rows)
