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
   incident to it: its raw rows (Eq. 2's FT, Eq. 4's VD, UT) and the
   ``math.fsum`` total of each row it touched.  No accumulator keeps a
   normalised FM/DM/UM; :meth:`TrustPipeline.dimension_matrices` normalises
   them when read.  The pipeline clears the dirt once every dimension has
   consumed it;
3. the integrated ``TM`` is patched row-wise — Eq. 7 re-applied to exactly
   the dirty rows, adding ``weight * value / total`` term by term, so the
   division of Eqs. 3/5/6 happens inside it — and published
   copy-on-write, so earlier snapshots stay stable while each refresh has
   a fresh matrix identity.  At ``n = 1`` the rows are dicts; at
   ``n >= 2`` they are written straight into TM's array form, which is
   all the power reads;
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
from .matrix import TrustMatrix, weighted_csr
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
    into a new one (:meth:`_publish_trust`), so callers holding a
    :class:`RefreshView` from an earlier refresh keep a stable snapshot
    while ``pipeline.trust`` moves on.  ``version`` increments on every
    refresh that consumed dirt.
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
        #: TM; in array form from the start at ``n >= 2``
        #: (:meth:`_publish_trust`).
        self._trust = (TrustMatrix() if config.multitrust_steps == 1
                       else TrustMatrix().to_csr())
        self._reputation = TrustMatrix()
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
        a zero weight maps to an empty matrix.  Each is normalised from its
        accumulator's raw rows on this call, so it is the caller's own copy.
        Tests and diagnostics read the dimensions here instead of reaching
        into accumulator internals.
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
            touched: Dict[str, Set[str]] = {}
            for _weight, accumulator in self._dimensions:
                with self.recorder.span(accumulator.span):
                    touched[accumulator.dimension] = (
                        accumulator.rebuild() if full
                        else accumulator.refresh())
            dirty_rows: Set[str] = set().union(*touched.values())
            with self.recorder.span("pipeline.publish"):
                self._publish_trust(dirty_rows)
            self._reputation, backend = self._power(self._trust,
                                                    self.recorder)
            span.count("rows_rebuilt", len(dirty_rows))
            span.count("dirty_files", dirty_files)

        self.evaluations.clear_dirty()
        self.ledger.clear_dirty()
        self.user_trust.clear_dirty()
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

    # ------------------------------------------------------------------ #
    # Internals                                                          #
    # ------------------------------------------------------------------ #

    def _publish_trust(self, dirty_rows: Set[str]) -> None:
        """Re-apply Eq. 7 to exactly ``dirty_rows``; publish copy-on-write.

        The form of TM follows ``multitrust_steps``.  At ``n = 1`` RM *is*
        TM and queries read its rows, so each row is one dict, built by
        :meth:`TrustMatrix.weighted_row` from every dimension's raw rows
        and their totals, and adopted as it is by
        :meth:`TrustMatrix.copy_with_rows`.  At ``n >= 2`` TM is only an
        operand of the power, which reads its array form, so
        :func:`weighted_csr` writes the dirty rows straight into the
        previous TM's arrays, with the same bits.
        """
        check_simplex((self.config.alpha, self.config.beta, self.config.gamma),
                      name="(alpha, beta, gamma)")
        dimensions = [(weight, accumulator.raw, accumulator.totals)
                      for weight, accumulator in self._dimensions]
        if self.config.multitrust_steps >= 2:
            self._trust = weighted_csr(dimensions, dirty_rows, self._trust)
        else:
            self._trust = self._trust.copy_with_rows(
                {i: TrustMatrix.weighted_row(dimensions, i)
                 for i in sorted(dirty_rows)})
        check_row_stochastic(self._trust, name="TM", strict=False)

    def _power(self, trust: TrustMatrix,
               recorder: NullRecorder) -> Tuple[TrustMatrix, str]:
        """``trust^n`` (Eq. 8) and the name of the backend that computed it.

        A backend is resolved — and ``"auto"``'s O(entries) scan paid —
        only when a product actually runs.  At ``n == 1`` RM *is* TM and
        the name is ``"none"``.
        """
        steps = self.config.multitrust_steps
        if steps == 1:
            return trust, "none"
        backend = resolve_backend(self.config.matmul_backend, trust)
        return compute_reputation_matrix(
            trust, steps, self.config, recorder=recorder,
            backend=backend), backend.name

    def _verify_against_full_rebuild(self) -> None:
        """Contracts-gated hard bar: patched state == full rebuild, exactly.

        FM, DM and UM are built from the stores once, compared with the
        ones the accumulators' raw rows give on read, and integrated for
        the ``TM`` check.
        """
        if not contracts_enabled():
            return
        from .integration import build_dimension_matrices, integrate

        full_dimensions = build_dimension_matrices(
            self.evaluations, self.ledger, self.user_trust, self.config)
        dimensions = self.dimension_matrices()
        for dimension, full_matrix in full_dimensions.items():
            check_matrices_equal(dimensions[dimension], full_matrix,
                                 name=f"{dimension}(incremental)")
        full_trust = integrate(full_dimensions, self.config)
        check_matrices_equal(self._trust, full_trust, name="TM(incremental)")
        # Same backend choice as the incremental path: the csr and dense
        # products agree only to tolerance, and the bar here is exact.
        full_reputation, _backend = self._power(full_trust, NULL_RECORDER)
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
