"""Sparse trust matrices.

Every one-step trust dimension (FM, DM, UM), the integrated matrix TM and
the multi-trust reputation matrix RM are row-indexed by the *trusting* user
and column-indexed by the *trusted* user.  Real P2P trust matrices are
extremely sparse (the paper's central "coverage" problem is precisely this
sparsity), so the canonical representation is a dict-of-dicts; array
bridges (CSR and dense numpy) are provided for eigen-analysis and for the
products behind ``RM = TM^n``, which :mod:`~repro.core.matrix_backend`
computes: a trust matrix has no product of its own.

:class:`CsrTrustMatrix` is the read-only array form the numpy and scipy
backends publish ``RM = TM^n`` in: canonical CSR arrays over the sorted id
list, read in place, with a row becoming a dict only when a caller iterates
it.  It is value-equal (``==``, :meth:`~TrustMatrix.checksum`) to the dict
form of the same entries.
"""

from __future__ import annotations

import hashlib
import struct
from math import fsum
from types import MappingProxyType
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

__all__ = ["TrustMatrix", "CsrTrustMatrix"]

#: Shared immutable empty row for :meth:`TrustMatrix.row_view` misses.
_EMPTY_ROW: Mapping[str, float] = MappingProxyType({})


class TrustMatrix:
    """A sparse matrix of trust values ``matrix[i][j] = trust of i in j``.

    The class is agnostic about normalisation; the Eq. 3/5/6 constructors in
    the dimension modules call :meth:`row_normalized` (full builds) or
    :meth:`replace_row_normalized` (patched rows) to produce the
    row-stochastic one-step matrices the paper uses.
    """

    def __init__(self, rows: Optional[Mapping[str, Mapping[str, float]]] = None):
        self._rows: Dict[str, Dict[str, float]] = {}
        #: :meth:`to_csr`'s result, dropped by every mutation.
        self._csr: Optional[CsrTrustMatrix] = None
        if rows:
            for i, row in rows.items():
                for j, value in row.items():
                    self.set(i, j, value)

    # ------------------------------------------------------------------ #
    # Mutation                                                           #
    # ------------------------------------------------------------------ #

    def set(self, i: str, j: str, value: float) -> None:
        """Set entry (i, j); zero values are stored as absent."""
        if value < 0:
            raise ValueError(f"trust values must be >= 0, got {value} at ({i},{j})")
        self._csr = None
        if value == 0.0:
            row = self._rows.get(i)
            if row is not None:
                row.pop(j, None)
                if not row:
                    del self._rows[i]
            return
        self._rows.setdefault(i, {})[j] = value

    def add(self, i: str, j: str, delta: float) -> None:
        """Increment entry (i, j) by ``delta`` (clamped at zero below)."""
        current = self.get(i, j)
        self.set(i, j, max(current + delta, 0.0))

    def replace_row_normalized(self, i: str, raw: Mapping[str, float]) -> None:
        """Replace row ``i`` with ``raw`` scaled to sum to 1 (Eqs. 3, 5, 6).

        The one row normaliser: the full builders (via
        :meth:`row_normalized`) and the incremental accumulators both land
        here.  The total uses ``math.fsum``, so the row depends only on its
        *values*, never on dict insertion order — a patched row equals a
        rebuilt one bit for bit.  Quotients that underflow to 0.0 are
        dropped, and a row whose total is not positive is removed.
        """
        self._csr = None
        total = fsum(raw.values())
        row = ({j: quotient for j, value in raw.items()
                if (quotient := value / total) > 0.0} if total > 0 else {})
        if row:
            self._rows[i] = row
        else:
            self._rows.pop(i, None)

    def copy_with_rows(self, updates: Mapping[str, Dict[str, float]]
                       ) -> "TrustMatrix":
        """Row-level copy-on-write: a new matrix sharing unchanged rows.

        ``updates`` maps row ids to their new contents (empty mapping =
        remove the row).  Each new row must already hold only positive
        entries — :meth:`weighted_row` builds them that way — and is
        *adopted*, not copied: the caller hands it over and must not
        mutate it afterwards.  Unchanged rows are *shared by reference*
        with ``self`` and are never mutated afterwards — each refresh that
        touches them again replaces them here the same way — so snapshots
        handed out earlier stay stable while a refresh publishes a fresh
        matrix identity.
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
        """Read-only *live* view of row ``i`` — no copy.

        The observability layer samples full matrices at every mechanism
        refresh; copying each row per tick would dwarf the cost of the
        events themselves.  The view reflects later mutations; callers that
        need a stable snapshot should use :meth:`row`.
        """
        row = self._rows.get(i)
        return MappingProxyType(row) if row is not None else _EMPTY_ROW

    def iter_row_views(self) -> Iterator[Tuple[str, Mapping[str, float]]]:
        """(row id, read-only row view) pairs — no copying."""
        for i, row in self._rows.items():
            yield i, MappingProxyType(row)

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
        instead of shipping whole matrices around.  The array form hashes
        through this same walk, one row dict at a time; going through
        :meth:`to_csr` instead would hold an array copy of a dict-form
        matrix while hashing.
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
        result = TrustMatrix()
        for i, row in self._rows.items():
            result.replace_row_normalized(i, row)
        return result

    def scaled(self, factor: float) -> "TrustMatrix":
        """Return ``factor * self``."""
        if factor < 0:
            raise ValueError("scale factor must be >= 0")
        result = TrustMatrix()
        if factor == 0.0:
            return result
        for i, row in self._rows.items():
            for j, value in row.items():
                result.set(i, j, value * factor)
        return result

    @staticmethod
    def weighted_sum(terms: Iterable[Tuple[float, "TrustMatrix"]]) -> "TrustMatrix":
        """Eq. 7: ``sum_k w_k * M_k`` over (weight, matrix) pairs."""
        active: List[Tuple[float, TrustMatrix]] = []
        for weight, matrix in terms:
            if weight < 0:
                raise ValueError("weights must be >= 0")
            if weight > 0.0:
                active.append((weight, matrix))
        # Rows in order of first appearance, dimension by dimension.
        return TrustMatrix().copy_with_rows({
            i: TrustMatrix.weighted_row(active, i)
            for i in dict.fromkeys(i for _, matrix in active
                                   for i in matrix._rows)})

    @staticmethod
    def weighted_row(terms: Sequence[Tuple[float, "TrustMatrix"]],
                     i: str) -> Dict[str, float]:
        """Row ``i`` of Eq. 7's ``sum_k w_k * M_k``, terms added in order.

        :meth:`weighted_sum` builds every row through here and the
        incremental pipeline re-derives its dirty TM rows through here, so
        both land on the same floats.  The row is seeded from the first
        non-empty term's products (``0.0 + x == x`` for ``x >= 0``, so the
        floats match a sum started from zero) and later terms add in
        place; products that underflow to 0.0 are dropped, so the result
        can go straight into :meth:`copy_with_rows`.
        """
        row: Optional[Dict[str, float]] = None
        for weight, matrix in terms:
            values = matrix._rows.get(i)
            if not values:
                continue
            if row is None:
                row = {j: weight * value for j, value in values.items()}
                continue
            get = row.get
            for j, value in values.items():
                row[j] = get(j, 0.0) + weight * value
        if row is None:
            return {}
        if 0.0 in row.values():
            row = {j: value for j, value in row.items() if value > 0.0}
        return row

    # ------------------------------------------------------------------ #
    # Array bridges                                                      #
    # ------------------------------------------------------------------ #

    def to_csr(self) -> "CsrTrustMatrix":
        """This matrix in array form over its sorted node ids.

        One walk over the rows; the result is kept until the next mutation,
        so the ``"auto"`` density check and the product that follows share
        it.
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

    @classmethod
    def from_dense(cls, array: np.ndarray, node_ids: Sequence[str]) -> "TrustMatrix":
        """Inverse of :meth:`to_dense`: the positive entries of ``array``.

        Walks only the non-zero entries (row-major, the order a double loop
        would visit them), so sparse products pay for what they hold.
        """
        if array.shape != (len(node_ids), len(node_ids)):
            raise ValueError(
                f"array shape {array.shape} does not match {len(node_ids)} ids")
        result = cls()
        rows, cols = np.nonzero(array > 0.0)
        values = array[rows, cols].tolist()
        for a, b, value in zip(rows.tolist(), cols.tolist(), values):
            result.set(node_ids[a], node_ids[b], value)
        return result

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
    """Read-only trust matrix over canonical CSR arrays.

    ``ids`` is the strictly sorted list of node ids — the constructor drops
    ids that hold no entry; ``data`` must be positive — and row ``a`` holds
    the entries ``data[indptr[a]:indptr[a + 1]]`` at columns
    ``indices[...]``, ascending.  Reads index the arrays directly: ``get``
    takes ``data[start + b]`` on a full row and a binary search on a
    sparse one; ``entry_count``, ``row_ids``, ``node_ids`` and ``==``
    read the arrays, and each row's maximum is computed once, here.  Only
    a caller that iterates a row (``checksum`` among them) gets a dict.
    Mutators raise ``TypeError``.
    """

    def __init__(self, ids: Sequence[str], indptr: np.ndarray,
                 indices: np.ndarray, data: np.ndarray):
        ids = list(ids)
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError("CSR ids must be strictly sorted")
        if len(indptr) != len(ids) + 1:
            raise ValueError(
                f"indptr has {len(indptr)} entries for {len(ids)} ids")
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
        self._data = np.asarray(data, dtype=np.float64)
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
        if array.shape != (len(node_ids), len(node_ids)):
            raise ValueError(
                f"array shape {array.shape} does not match {len(node_ids)} ids")
        positive = array > 0.0
        indptr = np.zeros(len(node_ids) + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(positive, axis=1), out=indptr[1:])
        columns = np.broadcast_to(np.arange(len(node_ids)), array.shape)
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
    # Read-only                                                          #
    # ------------------------------------------------------------------ #

    def set(self, i: str, j: str, value: float) -> None:
        raise TypeError("CsrTrustMatrix is read-only")

    def replace_row_normalized(self, i: str, raw: Mapping[str, float]) -> None:
        raise TypeError("CsrTrustMatrix is read-only")

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

    def row_ids(self) -> List[str]:
        return [self._ids[a] for a in self._nonempty.tolist()]

    def row_max(self, i: str) -> float:
        a = self._index.get(i)
        return 0.0 if a is None else self._row_max[a]

    def entry_count(self) -> int:
        return len(self._data)

    def node_ids(self) -> List[str]:
        return list(self._ids)

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
