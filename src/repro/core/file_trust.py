"""File-based direct trust (Section 3.1.1, Eqs. 2-3).

Two users who evaluate the same files similarly are inferred to trust each
other::

    FT_ij = 1 - (1/m) * sum_{k in F} |E_ik - E_jk|      (Eq. 2)
    FM_ij = FT_ij / sum_{k in U_all} FT_ik              (Eq. 3)

where ``F`` is the intersection of files both evaluated (``m = |F|``).  When
the intersection is empty there is *no* file-based edge — this is exactly the
sparsity the multi-dimensional design fights.

This module also exposes the pairwise trust function on its own so the
Figure 1 replay can test edge existence without materialising a full matrix.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from ..lint.contracts import check_row_stochastic
from .config import DEFAULT_CONFIG, ReputationConfig
from .distances import PAIRWISE_ACCUMULATORS, get_similarity
from .evaluation import EvaluationStore
from .matrix import TrustMatrix, normalize_rows, retotal

__all__ = ["file_trust", "build_file_trust_matrix", "FileTrustAccumulator"]


def file_trust(store: EvaluationStore, user_a: str, user_b: str,
               config: ReputationConfig = DEFAULT_CONFIG) -> Optional[float]:
    """Eq. 2: ``FT_ab``, or ``None`` when the users share no evaluated files.

    ``None`` (no relationship) is distinct from ``0.0`` (maximally opposed
    opinions); Eq. 3's normalisation treats both as a zero matrix entry, but
    the coverage analysis of Figure 1 counts only the former as "uncovered".
    """
    shared = store.shared_files(user_a, user_b)
    if len(shared) < config.min_overlap:
        return None
    similarity = get_similarity(config.distance_metric)
    vector_a = [store.value(user_a, file_id) for file_id in shared]
    vector_b = [store.value(user_b, file_id) for file_id in shared]
    return similarity(vector_a, vector_b)  # type: ignore[arg-type]


def build_file_trust_matrix(store: EvaluationStore,
                            config: ReputationConfig = DEFAULT_CONFIG,
                            users: Optional[Iterable[str]] = None
                            ) -> TrustMatrix:
    """Eqs. 2-3: the row-normalised file-based one-step matrix ``FM``.

    Rather than comparing all user pairs (quadratic in the population), we
    invert through the file index — only pairs that co-evaluated a file can
    have an edge — and exploit that every Eq. 2 metric decomposes into a
    per-file term plus a finaliser (see ``PAIRWISE_ACCUMULATORS``), so each
    co-evaluation costs O(1) instead of re-intersecting vectors.
    """
    universe = set(users) if users is not None else store.users()
    term, finalize = PAIRWISE_ACCUMULATORS[config.distance_metric]

    totals: Dict[tuple, float] = {}
    counts: Dict[tuple, int] = {}
    # Sorted: store.files() is a set, and the per-pair accumulation order
    # must not depend on PYTHONHASHSEED (float sums are order-sensitive).
    for file_id in sorted(store.files()):
        evaluators = sorted(u for u in store.users_evaluating(file_id)
                            if u in universe)
        if len(evaluators) < 2:
            continue
        values = {u: store.value(u, file_id) for u in evaluators}
        for index, a in enumerate(evaluators):
            value_a = values[a]
            for b in evaluators[index + 1:]:
                pair = (a, b)
                totals[pair] = totals.get(pair, 0.0) + term(value_a, values[b])
                counts[pair] = counts.get(pair, 0) + 1

    raw: Dict[str, Dict[str, float]] = {}
    for pair, count in counts.items():
        if count < config.min_overlap:
            continue
        trust = finalize(totals[pair], count)
        if trust > 0.0:
            a, b = pair
            raw.setdefault(a, {})[b] = trust
            raw.setdefault(b, {})[a] = trust
    matrix = normalize_rows(raw)
    check_row_stochastic(matrix, name="FM")
    return matrix


class FileTrustAccumulator:
    """Patch-based FM builder keyed by *dirty files*.

    Unlike DM/UM rows, an FM entry couples two users through every file both
    evaluated.  A pair's Eq. 2 term for file ``k`` depends only on the two
    users' Eq. 1 values for ``k``, so when one evaluator of ``k`` moves —
    is added, removed or re-valued — only the pairs that include that
    evaluator can change.  The accumulator remembers, per pair, the term
    each file contributed (``_pair_terms``) and, per file, the Eq. 1 values
    those terms were derived from (``_file_values``).  A refresh diffs each
    dirty file's snapshot against the store, re-derives exactly the pairs
    (moved user, co-evaluator) — each once, even when both users moved —
    drops the terms of users who left, re-finalises the perturbed pairs and
    re-totals the perturbed rows.  A rebuild is a refresh of every file
    from an empty snapshot, where every evaluator has moved.

    A pair's total is re-summed left-to-right over its term files in sorted
    order — the accumulation sequence the full builder produces by walking
    ``sorted(store.files())``.  No normalised FM is kept: the pipeline's
    Eq. 7 publish divides each :attr:`raw` row by its ``math.fsum`` in
    :attr:`totals`, and :attr:`matrix` normalises :attr:`raw` when read.
    """

    #: Key of this dimension in :meth:`TrustPipeline.dimension_matrices`.
    dimension = "file"
    #: The span :meth:`TrustPipeline.refresh` times this dimension under.
    span = "pipeline.file_trust"

    def __init__(self, store: EvaluationStore,
                 config: ReputationConfig = DEFAULT_CONFIG):
        self._store = store
        self._config = config
        self._term, self._finalize = PAIRWISE_ACCUMULATORS[config.distance_metric]
        #: pair -> {file_id: Eq. 2 term} for every file both users evaluated.
        self._pair_terms: Dict[Tuple[str, str], Dict[str, float]] = {}
        #: file_id -> {user: Eq. 1 value} the file's current terms came from:
        #: the read-only map the store handed out, kept as it was returned.
        self._file_values: Dict[str, Mapping[str, float]] = {}
        #: Un-normalised symmetric FT rows (Eq. 2 finalised values).
        self.raw: Dict[str, Dict[str, float]] = {}
        #: row -> ``math.fsum`` of its :attr:`raw` values, Eq. 3's divisor.
        self.totals: Dict[str, float] = {}

    @property
    def matrix(self) -> TrustMatrix:
        """FM (Eq. 3): :attr:`raw` row-normalised, built afresh per read."""
        matrix = normalize_rows(self.raw)
        check_row_stochastic(matrix, name="FM")
        return matrix

    def refresh(self) -> Set[str]:
        """Re-derive what the store's dirty files touch; returns rows touched."""
        return self._rederive(self._store.dirty_files())

    def rebuild(self) -> Set[str]:
        """Full pass: forget everything and re-derive from every file."""
        stale_rows = set(self.raw)
        self._pair_terms = {}
        self._file_values = {}
        self.raw = {}
        self.totals = {}
        return self._rederive(self._store.files()) | stale_rows

    def _rederive(self, files: Iterable[str]) -> Set[str]:
        """Diff ``files`` against their snapshots; returns rows touched."""
        store = self._store
        term = self._term
        pair_terms = self._pair_terms
        changed_pairs: Set[Tuple[str, str]] = set()
        for file_id in sorted(set(files)):
            old = self._file_values.pop(file_id, {})
            # No universe filter: evaluators are always in store.users().
            new = store.file_evaluations(file_id)
            if new:
                self._file_values[file_id] = new
            # Users who left: drop their pairs with every previous evaluator.
            left = [u for u in old if u not in new]
            stayed = [u for u in old if u in new]
            for index, user in enumerate(left):
                for other in chain(left[index + 1:], stayed):
                    pair = (user, other) if user < other else (other, user)
                    terms = pair_terms[pair]
                    del terms[file_id]
                    if not terms:
                        del pair_terms[pair]
                    changed_pairs.add(pair)
            # Users added or re-valued: re-derive their pairs with every
            # current evaluator; pairs of two unmoved users keep their term.
            moved = [u for u in new if old.get(u) != new[u]]
            unmoved = [u for u in new if old.get(u) == new[u]]
            for index, user in enumerate(moved):
                value = new[user]
                for other in chain(moved[index + 1:], unmoved):
                    if user < other:
                        pair = (user, other)
                        pair_term = term(value, new[other])
                    else:
                        pair = (other, user)
                        pair_term = term(new[other], value)
                    pair_terms.setdefault(pair, {})[file_id] = pair_term
                    changed_pairs.add(pair)

        raw = self.raw
        touched: Set[str] = set()
        for pair in sorted(changed_pairs):
            a, b = pair
            trust = 0.0
            terms = pair_terms.get(pair)
            if terms is not None and len(terms) >= self._config.min_overlap:
                # Left-to-right over sorted files: the exact accumulation
                # sequence of the full builder's per-pair running total.
                total = 0.0
                for term_file in sorted(terms):
                    total += terms[term_file]
                trust = self._finalize(total, len(terms))
            value = trust if trust > 0.0 else 0.0
            if value != raw.get(a, {}).get(b, 0.0):
                for i, j in ((a, b), (b, a)):
                    if value > 0.0:
                        raw.setdefault(i, {})[j] = value
                    else:
                        # The entry held a value (FT is symmetric): drop
                        # it, and the row with its last entry.
                        row = raw[i]
                        del row[j]
                        if not row:
                            del raw[i]
                touched.add(a)
                touched.add(b)

        retotal(raw, self.totals, touched)
        return touched
