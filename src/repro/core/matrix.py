"""Sparse trust matrices.

Every one-step trust dimension (FM, DM, UM), the integrated matrix TM and
the multi-trust reputation matrix RM are row-indexed by the *trusting* user
and column-indexed by the *trusted* user.  Real P2P trust matrices are
extremely sparse (the paper's central "coverage" problem is precisely this
sparsity), so the canonical representation is a dict-of-dicts; array
bridges (CSR and dense numpy) are provided for eigen-analysis and for the
products behind ``RM = TM^n``, which :mod:`~repro.core.matrix_backend`
computes: a trust matrix has no product of its own.

A :class:`TrustMatrix` is a value: it is made by its constructor, by
:func:`normalize_rows` or by :meth:`~TrustMatrix.copy_with_rows`, and
nothing changes it afterwards.  What changes between refreshes are the
dimension accumulators' raw rows, plain ``Dict[str, Dict[str, float]]``
that :func:`normalize_rows`, :func:`retotal` and
:meth:`~TrustMatrix.weighted_row` read as they are.

:class:`CsrTrustMatrix` is the array form the numpy and scipy backends
publish ``RM = TM^n`` in: canonical CSR arrays over the sorted id list,
read in place, with a row becoming a dict only when a caller iterates it.
It is value-equal (``==``, :meth:`~TrustMatrix.checksum`) to the dict form
of the same entries.  At ``n >= 2`` the pipeline publishes TM in it too,
written by :func:`weighted_csr` from the raw rows with no row dict made.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_right
from itertools import chain
from math import fsum
from types import MappingProxyType
from typing import (Collection, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Set, Tuple)

import numpy as np

__all__ = ["TrustMatrix", "CsrTrustMatrix", "normalize_rows", "weighted_csr"]

#: Rows of trust values, ``rows[i][j] = trust of i in j``.
Rows = Mapping[str, Mapping[str, float]]

#: Shared immutable empty row for :meth:`TrustMatrix.row_view` misses.
_EMPTY_ROW: Mapping[str, float] = MappingProxyType({})
#: Entries per record block of :meth:`CsrTrustMatrix.checksum`.
_CHECKSUM_BLOCK = 1 << 12
#: The row totals of an already-normalised matrix in
#: :meth:`TrustMatrix.weighted_row`: none, so every row divides by 1.0.
_NORMALISED: Mapping[str, float] = MappingProxyType({})


class TrustMatrix:
    """A sparse matrix of trust values ``matrix[i][j] = trust of i in j``.

    A value: no method changes a matrix once it is made.  The class is
    agnostic about normalisation; the Eq. 3/5/6 builders in the dimension
    modules call :func:`normalize_rows` to produce the row-stochastic
    one-step matrices the paper uses, and Eq. 7's :meth:`weighted_row`
    divides raw rows by their totals itself.
    """

    def __init__(self, rows: Optional[Rows] = None):
        """The entries of ``rows``, copied; a zero is left out, and a
        negative or NaN entry raises ``ValueError``."""
        self._rows: Dict[str, Dict[str, float]] = {}
        #: :meth:`to_csr`'s result, once built.
        self._csr: Optional[CsrTrustMatrix] = None
        for i, values in (rows or {}).items():
            row: Dict[str, float] = {}
            for j, value in values.items():
                if not value >= 0:
                    raise ValueError(
                        f"trust values must be >= 0, got {value} at ({i},{j})")
                if value != 0.0:
                    row[j] = value
            if row:
                self._rows[i] = row

    def copy_with_rows(self, updates: Mapping[str, Dict[str, float]]
                       ) -> "TrustMatrix":
        """Row-level copy-on-write: a new matrix sharing unchanged rows.

        ``updates`` maps row ids to their new contents (empty mapping =
        remove the row).  Each new row must already hold only positive
        entries — :meth:`weighted_row` builds them that way — and is
        *adopted*, not copied: the caller hands it over and must not
        mutate it afterwards.  Unchanged rows are *shared by reference*
        with ``self``; no matrix changes a row, so snapshots handed out
        earlier stay stable while a refresh publishes a fresh matrix
        identity.
        """
        result = TrustMatrix()
        rows = result._rows = dict(self._rows)
        for i, values in updates.items():
            if values:
                rows[i] = values
            else:
                rows.pop(i, None)
        return result

    # ------------------------------------------------------------------ #
    # Access                                                             #
    # ------------------------------------------------------------------ #

    def get(self, i: str, j: str) -> float:
        return self._rows.get(i, {}).get(j, 0.0)

    def row(self, i: str) -> Dict[str, float]:
        """A copy of row ``i`` (absent rows are empty)."""
        return dict(self._rows.get(i, {}))

    def rows(self) -> Iterator[Tuple[str, Dict[str, float]]]:
        for i, row in self._rows.items():
            yield i, dict(row)

    def row_view(self, i: str) -> Mapping[str, float]:
        """Read-only view of row ``i`` — no copy.

        The observability layer samples full matrices at every mechanism
        refresh; copying each row per tick would dwarf the cost of the
        events themselves.  Callers that want a dict of their own should
        use :meth:`row`.
        """
        row = self._rows.get(i)
        return MappingProxyType(row) if row is not None else _EMPTY_ROW

    def iter_row_views(self) -> Iterator[Tuple[str, Mapping[str, float]]]:
        """(row id, read-only row view) pairs — no copying."""
        for i, row in self._rows.items():
            yield i, MappingProxyType(row)

    def row_values(self) -> Iterator[Tuple[str, Collection[float]]]:
        """(row id, the row's values) pairs in row order — no row copied."""
        for i, row in self._rows.items():
            yield i, row.values()

    def row_ids(self) -> List[str]:
        return list(self._rows)

    def row_max(self, i: str) -> float:
        """Largest entry of row ``i`` (0.0 for an absent row)."""
        row = self._rows.get(i)
        return max(row.values()) if row else 0.0

    def entry_count(self) -> int:
        """Number of non-zero entries."""
        return sum(len(row) for row in self._rows.values())

    def node_ids(self) -> List[str]:
        """All ids appearing as a row or column, sorted for determinism."""
        ids = set(self._rows)
        for row in self._rows.values():
            ids.update(row)
        return sorted(ids)

    def checksum(self) -> str:
        """Bit-exact sha256 digest of the matrix contents.

        Entries are hashed in sorted (row, column) order with each value's
        IEEE-754 byte representation, so two matrices have equal checksums
        iff they are exactly ``==`` — the digest recovery tests compare
        instead of shipping whole matrices around.  The array form streams
        the same bytes from its arrays; going through :meth:`to_csr` here
        would hold an array copy of a dict-form matrix while hashing.
        """
        digest = hashlib.sha256()
        for i in sorted(self._rows):
            row = self._rows[i]
            digest.update(i.encode("utf-8") + b"\x00")
            for j in sorted(row):
                digest.update(j.encode("utf-8") + b"\x00")
                digest.update(struct.pack("<d", row[j]))
        return digest.hexdigest()

    def has_edge(self, i: str, j: str) -> bool:
        return self.get(i, j) > 0.0

    def density(self, node_ids: Optional[Sequence[str]] = None) -> float:
        """Fraction of possible off-diagonal edges present.

        ``node_ids`` fixes the universe (defaults to ids seen in the matrix);
        density over an n-node universe divides by ``n * (n - 1)``.  Read
        off the array form.
        """
        return self.to_csr().density(node_ids)

    # ------------------------------------------------------------------ #
    # Algebra                                                            #
    # ------------------------------------------------------------------ #

    def row_normalized(self) -> "TrustMatrix":
        """Return a copy whose non-empty rows sum to 1 (Eqs. 3, 5, 6)."""
        return normalize_rows(self._rows)

    @staticmethod
    def weighted_sum(terms: Iterable[Tuple[float, "TrustMatrix"]]) -> "TrustMatrix":
        """Eq. 7: ``sum_k w_k * M_k`` over (weight, matrix) pairs."""
        active: List[Tuple[float, Rows, Mapping[str, float]]] = []
        for weight, matrix in terms:
            if weight < 0:
                raise ValueError("weights must be >= 0")
            if weight > 0.0:
                active.append((weight, matrix._rows, _NORMALISED))
        # Rows in order of first appearance, dimension by dimension.
        return TrustMatrix().copy_with_rows({
            i: TrustMatrix.weighted_row(active, i)
            for i in dict.fromkeys(i for _, rows, _ in active
                                   for i in rows)})

    @staticmethod
    def weighted_row(terms: Sequence[Tuple[float, Rows, Mapping[str, float]]],
                     i: str) -> Dict[str, float]:
        """Row ``i`` of Eq. 7, ``sum_k w_k * M_k[i] / total_k[i]``, in order.

        Each term is a weight, a dimension's raw rows and the
        ``math.fsum`` total of each of them, so ``value / total`` is the
        entry :func:`normalize_rows` would store (Eqs. 3, 5, 6) and no
        normalised FM/DM/UM has to exist.  A row the totals do
        not name divides by 1.0: an already-normalised matrix comes with
        no totals, since ``x / 1.0 == x``.  :meth:`weighted_sum` and the
        incremental pipeline both build every row here, so they land on
        the same floats, and on the floats of normalising first:

        - a quotient that underflows to 0.0 is skipped, as the normaliser
          drops it, so it takes no key position in the row;
        - the row is seeded from the first non-empty term's products
          (``0.0 + x == x`` for ``x >= 0``, so the floats match a sum
          started from zero) and later terms add in place;
        - products that underflow to 0.0 keep their key until the end and
          are dropped there, so the result can go straight into
          :meth:`copy_with_rows`.
        """
        row: Optional[Dict[str, float]] = None
        for weight, rows, totals in terms:
            values = rows.get(i)
            if not values:
                continue
            total = totals.get(i, 1.0)
            if row is None:
                row = {j: weight * quotient for j, value in values.items()
                       if (quotient := value / total) > 0.0}
                continue
            get = row.get
            for j, value in values.items():
                quotient = value / total
                if quotient > 0.0:
                    row[j] = get(j, 0.0) + weight * quotient
        if not row:
            return {}
        if 0.0 in row.values():
            row = {j: value for j, value in row.items() if value > 0.0}
        return row

    # ------------------------------------------------------------------ #
    # Array bridges                                                      #
    # ------------------------------------------------------------------ #

    def to_csr(self) -> "CsrTrustMatrix":
        """This matrix in array form over its sorted node ids.

        One walk over the rows.  The result is kept, so the ``"auto"``
        density check and the product that follows share it.
        """
        if self._csr is None:
            columns: List[str] = []
            data: List[float] = []
            lengths: List[int] = []
            row_ids = sorted(self._rows)
            for i in row_ids:
                row = self._rows[i]
                columns.extend(row)
                data.extend(row.values())
                lengths.append(len(row))
            ids = sorted(set(row_ids).union(columns))
            index = {node_id: a for a, node_id in enumerate(ids)}
            counts = np.zeros(len(ids), dtype=np.int64)
            counts[[index[i] for i in row_ids]] = lengths
            indptr = np.zeros(len(ids) + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            indices = np.fromiter(map(index.__getitem__, columns),
                                  dtype=np.int64, count=len(columns))
            # Rows already run in id order; one sort puts every row's
            # columns in ascending order too.
            order = np.argsort(_entry_rows(indptr) * len(ids) + indices)
            self._csr = CsrTrustMatrix(
                ids, indptr, indices[order],
                np.asarray(data, dtype=np.float64)[order])
        return self._csr

    def to_dense(self, node_ids: Optional[Sequence[str]] = None
                 ) -> Tuple[np.ndarray, List[str]]:
        """Return ``(array, ids)`` with ``array[a, b] = self[ids[a], ids[b]]``.

        ``ids`` defaults to :meth:`node_ids`; entries outside it are left
        out.  Built from the array form.
        """
        return self.to_csr().to_dense(node_ids)

    # ------------------------------------------------------------------ #
    # Dunder                                                             #
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrustMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(rows={len(self._rows)}, "
                f"entries={self.entry_count()})")


def normalize_rows(rows: Rows) -> TrustMatrix:
    """``rows`` each scaled to sum to 1 (Eqs. 3, 5, 6).

    The one row normaliser.  A row's total is its ``math.fsum``, so the
    row depends only on its *values*, never on dict insertion order — a
    patched row equals a rebuilt one bit for bit; the dimension
    accumulators keep the same ``fsum`` of each raw row for
    :meth:`TrustMatrix.weighted_row` (:func:`retotal`).  Quotients that
    underflow to 0.0 are dropped, and a row whose total is not positive,
    or that keeps no entry, is left out.
    """
    result = TrustMatrix()
    normalized = result._rows
    for i, raw in rows.items():
        total = fsum(raw.values())
        if total > 0:
            row = {j: quotient for j, value in raw.items()
                   if (quotient := value / total) > 0.0}
            if row:
                normalized[i] = row
    return result


def retotal(raw: Rows, totals: Dict[str, float],
            rows: Iterable[str]) -> None:
    """Set ``totals[i]`` to the ``math.fsum`` of ``raw[i]`` for each of
    ``rows``; a row ``raw`` no longer holds leaves ``totals``.

    The dimension accumulators keep their raw rows' totals this way, the
    divisors :meth:`TrustMatrix.weighted_row` takes: the same ``fsum``
    :func:`normalize_rows` takes of the same values.
    """
    for i in rows:
        row = raw.get(i)
        if row:
            totals[i] = fsum(row.values())
        else:
            totals.pop(i, None)


def weighted_csr(terms: Sequence[Tuple[float, Rows, Mapping[str, float]]],
                 rows: Iterable[str], parent: TrustMatrix) -> "CsrTrustMatrix":
    """Eq. 7 straight into the array form: ``parent`` with ``rows``
    re-derived from ``terms``.

    ``terms`` are :meth:`TrustMatrix.weighted_row`'s, in Eq. 7 order, and
    the result equals ``parent.copy_with_rows({i: weighted_row(terms, i)
    for i in rows}).to_csr()`` bit for bit, with no row dict made:

    - each entry is ``weight * (value / total)``, with ``totals.get(i,
      1.0)``; numpy's float64 ``/``, ``*`` and ``+`` are single correctly
      rounded operations, as Python's are;
    - a cell's terms are added onto 0.0 in term order; a term that does
      not name the cell, or whose quotient underflows, adds nothing, as
      ``0.0 + x == x`` for ``x >= 0`` (raw rows hold positive values);
    - a cell whose sum ends at 0.0 (underflow) is left out, and so is an
      id left with no entry, by the constructor.

    ``parent`` is read in its array form (:meth:`TrustMatrix.to_csr`).
    Only the entries of ``rows`` are encoded, into arrays over its id
    list, and spliced in (:func:`_splice`).  An id the list lacks
    re-indexes: the merged id list is sorted, and the parent's arrays
    move onto it as :meth:`CsrTrustMatrix.over` moves them.  Working
    memory is O(entries of ``rows``) beside the result.
    """
    form = parent.to_csr()
    dirty = sorted(rows)
    ids = form.ids
    index = form._index
    try:
        keys, products = _encode_terms(terms, dirty, index)
    except KeyError:
        extra: Set[str] = set()
        for _weight, raw, _totals in terms:
            for i in dirty:
                row = raw.get(i)
                if row:
                    extra.add(i)
                    extra.update(row)
        ids = sorted(extra.union(ids))
        index = {node_id: a for a, node_id in enumerate(ids)}
        keys, products = _encode_terms(terms, dirty, index)
    # A stable sort keeps each cell's terms in Eq. 7 order, and
    # ``np.add.at`` adds them onto 0.0 one at a time, in that order.
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    sums = np.zeros(np.count_nonzero(first))
    np.add.at(sums, np.cumsum(first) - 1, products[order])
    positive = sums > 0.0
    replaced = [index[i] for i in dirty if i in index]
    return _splice(ids, *form.over(ids), replaced,
                   keys[first][positive], sums[positive])


def _encode_terms(terms: Sequence[Tuple[float, Rows, Mapping[str, float]]],
                  dirty: Sequence[str], index: Mapping[str, int]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """The terms' entries in ``dirty`` rows as ``(cells, products)``, term
    after term.

    A cell is ``row * len(index) + column`` over ``index``'s positions; a
    product is ``weight * (value / total)``.  ``KeyError`` on an id
    ``index`` lacks.
    """
    n = len(index)
    get = index.__getitem__
    cells = [np.empty(0, dtype=np.int64)]
    products = [np.empty(0)]
    for weight, raw, totals in terms:
        named = [i for i in dirty if raw.get(i)]
        if not named:
            continue
        held = [raw[i] for i in named]
        lengths = np.fromiter(map(len, held), dtype=np.int64,
                              count=len(held))
        count = int(lengths.sum())
        columns = np.fromiter(chain.from_iterable(map(get, row)
                                                  for row in held),
                              dtype=np.int64, count=count)
        values = np.fromiter(chain.from_iterable(row.values()
                                                 for row in held),
                             dtype=np.float64, count=count)
        at = np.fromiter(map(get, named), dtype=np.int64, count=len(named))
        divisors = np.array([totals.get(i, 1.0) for i in named])
        cells.append(np.repeat(at * n, lengths) + columns)
        products.append(weight * (values / np.repeat(divisors, lengths)))
    return np.concatenate(cells), np.concatenate(products)


def _splice(ids: List[str], indptr: np.ndarray, indices: np.ndarray,
            data: np.ndarray, replaced: Sequence[int], cells: np.ndarray,
            values: np.ndarray) -> "CsrTrustMatrix":
    """CSR arrays over ``ids`` with the rows at positions ``replaced``
    swapped for the entries ``cells`` (``row * len(ids) + column``,
    ascending) holding ``values``.

    One gather builds each output array: a kept row's entries are taken
    from the old arrays and a replaced row's from the new entries, each
    run starting where its row does.  The constructor prunes the ids left
    with no entry, as it does for a conversion from rows.
    """
    n = len(ids)
    rows = cells // n
    fresh = np.bincount(rows, minlength=n)
    counts = np.diff(indptr)
    counts[replaced] = fresh[replaced]
    starts = indptr[:-1].copy()
    starts[replaced] = (len(data) + np.cumsum(fresh) - fresh)[replaced]
    spliced = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=spliced[1:])
    take = np.repeat(starts - spliced[:-1], counts) + np.arange(spliced[-1])
    return CsrTrustMatrix(ids, spliced,
                          np.concatenate((indices, cells - rows * n))[take],
                          np.concatenate((data, values))[take])


def _entry_rows(indptr: np.ndarray) -> np.ndarray:
    """The row index of every entry of a CSR matrix."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


class _CsrRows(Mapping[str, Dict[str, float]]):
    """Row id -> row dict of a :class:`CsrTrustMatrix`, built per access.

    Stands in for the dict form's ``_rows``, so every :class:`TrustMatrix`
    method that walks rows works unchanged on the array form; nothing is
    cached, so a row costs a dict only while a caller holds it.
    """

    def __init__(self, matrix: "CsrTrustMatrix"):
        self._matrix = matrix

    def __getitem__(self, i: str) -> Dict[str, float]:
        matrix = self._matrix
        a = matrix._index.get(i)
        if a is None:
            raise KeyError(i)
        start, stop = matrix._starts[a], matrix._starts[a + 1]
        if start == stop:
            raise KeyError(i)
        return dict(zip(map(matrix._ids.__getitem__,
                            matrix._indices[start:stop].tolist()),
                        matrix._data[start:stop].tolist()))

    def __iter__(self) -> Iterator[str]:
        return iter(self._matrix.row_ids())

    def __len__(self) -> int:
        return len(self._matrix._nonempty)


class CsrTrustMatrix(TrustMatrix):
    """Trust matrix over canonical CSR arrays.

    ``ids`` is the strictly sorted list of node ids — the constructor drops
    ids that hold no entry; ``data`` must be positive, and a zero, negative
    or NaN entry raises ``ValueError`` — and row ``a`` holds
    the entries ``data[indptr[a]:indptr[a + 1]]`` at columns
    ``indices[...]``, ascending.  Reads index the arrays directly: ``get``
    takes ``data[start + b]`` on a full row and a binary search on a
    sparse one; ``entry_count``, ``row_ids``, ``node_ids`` and ``==``
    read the arrays, and each row's maximum is computed once, here.  Only
    a caller that iterates a row (``checksum`` among them) gets a dict.
    """

    def __init__(self, ids: Sequence[str], indptr: np.ndarray,
                 indices: np.ndarray, data: np.ndarray):
        ids = list(ids)
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError("CSR ids must be strictly sorted")
        if len(indptr) != len(ids) + 1:
            raise ValueError(
                f"indptr has {len(indptr)} entries for {len(ids)} ids")
        data = np.asarray(data, dtype=np.float64)
        if len(data) and not data.min() > 0.0:
            raise ValueError(
                f"CSR trust values must be > 0, got {data.min()}")
        present = np.diff(indptr) > 0
        if not present.all():
            present[indices] = True
        if not present.all():
            kept = np.flatnonzero(present)
            where = np.zeros(len(ids), dtype=np.int64)
            where[kept] = np.arange(len(kept))
            indptr = np.concatenate(([0], np.cumsum(np.diff(indptr)[kept])))
            indices = where[indices]
            ids = [ids[a] for a in kept.tolist()]
        self._ids = ids
        self._index = {node_id: a for a, node_id in enumerate(ids)}
        self._indptr = np.asarray(indptr)
        self._indices = np.asarray(indices)
        self._data = data
        self._starts: List[int] = self._indptr.tolist()
        self._nonempty = np.flatnonzero(np.diff(self._indptr))
        peaks = np.zeros(len(ids))
        if len(self._nonempty):
            peaks[self._nonempty] = np.maximum.reduceat(
                self._data, self._indptr[self._nonempty])
        self._row_max: List[float] = peaks.tolist()

    @property  # type: ignore[override]
    def _rows(self) -> Mapping[str, Dict[str, float]]:
        # Built per access: a stored one would make a reference cycle, and
        # a cycle keeps a published matrix's arrays alive until the cyclic
        # collector happens to run.
        return _CsrRows(self)

    @classmethod
    def from_dense(cls, array: np.ndarray,
                   node_ids: Sequence[str]) -> "CsrTrustMatrix":
        """The positive entries of ``array`` over the sorted ``node_ids``."""
        n = len(node_ids)
        if array.shape != (n, n):
            raise ValueError(
                f"array shape {array.shape} does not match {n} ids")
        positive = array > 0.0
        if n and positive.all():
            # Every row is full: no mask gathers.
            return cls(node_ids, np.arange(0, n * n + 1, n),
                       np.tile(np.arange(n), n), array.ravel())
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(positive, axis=1), out=indptr[1:])
        columns = np.broadcast_to(np.arange(n), array.shape)
        return cls(node_ids, indptr, columns[positive], array[positive])

    @property
    def ids(self) -> List[str]:
        """The sorted id list the arrays index: :meth:`node_ids`."""
        return self._ids

    def over(self, ids: Sequence[str]
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, data)`` over ``ids``, a sorted superset of
        this matrix's id list (the operands of a product over their union).
        """
        ids = list(ids)
        if ids == self._ids:
            return self._indptr, self._indices, self._data
        index = {node_id: b for b, node_id in enumerate(ids)}
        where = np.array([index[node_id] for node_id in self._ids],
                         dtype=np.int64)
        counts = np.zeros(len(ids), dtype=np.int64)
        counts[where] = np.diff(self._indptr)
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, where[self._indices], self._data

    # ------------------------------------------------------------------ #
    # Array form                                                         #
    # ------------------------------------------------------------------ #

    def to_csr(self) -> "CsrTrustMatrix":
        return self

    # ------------------------------------------------------------------ #
    # Access                                                             #
    # ------------------------------------------------------------------ #

    def get(self, i: str, j: str) -> float:
        a = self._index.get(i)
        b = self._index.get(j)
        if a is None or b is None:
            return 0.0
        start, stop = self._starts[a], self._starts[a + 1]
        if stop - start == len(self._ids):
            return self._data.item(start + b)
        k = start + int(self._indices[start:stop].searchsorted(b))
        if k < stop and self._indices[k] == b:
            return self._data.item(k)
        return 0.0

    def row_values(self) -> Iterator[Tuple[str, Collection[float]]]:
        starts = self._starts
        for a in self._nonempty.tolist():
            yield self._ids[a], self._data[starts[a]:starts[a + 1]].tolist()

    def row_ids(self) -> List[str]:
        return [self._ids[a] for a in self._nonempty.tolist()]

    def row_max(self, i: str) -> float:
        a = self._index.get(i)
        return 0.0 if a is None else self._row_max[a]

    def entry_count(self) -> int:
        return len(self._data)

    def node_ids(self) -> List[str]:
        return list(self._ids)

    def checksum(self) -> str:
        """:meth:`TrustMatrix.checksum`'s digest, read from the arrays.

        When every id encodes to the same number of bytes, one record
        array of ``(column id + NUL, little-endian float64)`` per entry
        holds each row's byte run as one slice.  Ids of mixed encoded
        length take the inherited row walk.
        """
        encoded = [node_id.encode("utf-8") for node_id in self._ids]
        if len({len(name) for name in encoded}) != 1:
            return super().checksum()
        width = len(encoded[0]) + 1  # the NUL is the S field's padding
        names = np.array(encoded, dtype=f"S{width}")
        layout = np.dtype([("id", f"S{width}"), ("value", "<f8")])
        size = layout.itemsize
        starts = self._starts
        digest = hashlib.sha256()
        a0 = 0
        while a0 < len(encoded):
            # Whole rows, about _CHECKSUM_BLOCK entries: the records take
            # a fixed block of memory whatever the matrix's size.
            begin = starts[a0]
            a1 = max(bisect_right(starts, begin + _CHECKSUM_BLOCK) - 1, a0 + 1)
            end = starts[a1]
            records = np.empty(end - begin, dtype=layout)
            records["id"] = names[self._indices[begin:end]]
            records["value"] = self._data[begin:end]
            stream = records.view(np.uint8)
            for a in range(a0, a1):
                if starts[a] < starts[a + 1]:
                    digest.update(encoded[a] + b"\x00")
                    digest.update(stream[(starts[a] - begin) * size:
                                         (starts[a + 1] - begin) * size])
            a0 = a1
        return digest.hexdigest()

    def density(self, node_ids: Optional[Sequence[str]] = None) -> float:
        """Entries inside the universe, minus its diagonal, over
        ``n * (n - 1)``."""
        given = self._ids if node_ids is None else list(node_ids)
        n = len(given)
        if n < 2:
            return 0.0
        inside = np.zeros(len(self._ids), dtype=bool)
        inside[[self._index[node_id] for node_id in given
                if node_id in self._index]] = True
        rows = _entry_rows(self._indptr)
        edges = np.count_nonzero(inside[rows] & inside[self._indices]
                                 & (rows != self._indices))
        return int(edges) / (n * (n - 1))

    def to_dense(self, node_ids: Optional[Sequence[str]] = None
                 ) -> Tuple[np.ndarray, List[str]]:
        ids = list(node_ids) if node_ids is not None else self.node_ids()
        index = {node_id: b for b, node_id in enumerate(ids)}
        where = np.array([index.get(node_id, -1) for node_id in self._ids],
                         dtype=np.int64)
        rows = where[_entry_rows(self._indptr)]
        cols = where[self._indices]
        keep = (rows >= 0) & (cols >= 0)
        array = np.zeros((len(ids), len(ids)))
        array[rows[keep], cols[keep]] = self._data[keep]
        return array, ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrustMatrix):
            return NotImplemented
        theirs = other.to_csr()
        return (self._ids == theirs._ids
                and np.array_equal(self._indptr, theirs._indptr)
                and np.array_equal(self._indices, theirs._indices)
                and np.array_equal(self._data, theirs._data))
