"""Sparse trust matrices.

Every one-step trust dimension (FM, DM, UM), the integrated matrix TM and
the multi-trust reputation matrix RM are row-indexed by the *trusting* user
and column-indexed by the *trusted* user.  Real P2P trust matrices are
extremely sparse (the paper's central "coverage" problem is precisely this
sparsity), so the canonical representation is a dict-of-dicts; a dense numpy
bridge is provided for eigen-analysis and fast matrix powers.
"""

from __future__ import annotations

import hashlib
import struct
from math import fsum
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["TrustMatrix"]

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

    def replace_row(self, i: str, values: Mapping[str, float]) -> None:
        """Replace row ``i`` wholesale; zero/negative entries are dropped.

        The incremental builders patch exactly the rows whose inputs went
        dirty; replacing the row in one call keeps the "no stored zeros, no
        empty rows" invariants without touching untouched rows.
        """
        row = {j: value for j, value in values.items() if value > 0.0}
        if row:
            self._rows[i] = row
        else:
            self._rows.pop(i, None)

    def replace_row_normalized(self, i: str, raw: Mapping[str, float]) -> None:
        """Replace row ``i`` with ``raw`` scaled to sum to 1 (Eqs. 3, 5, 6).

        The one row normaliser: the full builders (via
        :meth:`row_normalized`) and the incremental accumulators both land
        here.  The total uses ``math.fsum``, so the row depends only on its
        *values*, never on dict insertion order — a patched row equals a
        rebuilt one bit for bit.  A row whose total is not positive is
        removed.
        """
        total = fsum(raw.values())
        self.replace_row(
            i, {j: value / total for j, value in raw.items()} if total > 0 else {})

    def copy_with_rows(self, updates: Mapping[str, Mapping[str, float]]
                       ) -> "TrustMatrix":
        """Row-level copy-on-write: a new matrix sharing unchanged rows.

        ``updates`` maps row ids to their new contents (empty mapping =
        remove the row).  Unchanged rows are *shared by reference* with
        ``self`` and are never mutated afterwards — each refresh that
        touches them again replaces them here the same way — so snapshots
        handed out earlier stay stable while a refresh publishes a fresh
        matrix identity.
        """
        result = TrustMatrix()
        result._rows = dict(self._rows)
        for i, values in updates.items():
            result.replace_row(i, values)
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
        instead of shipping whole matrices around.
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
        density over an n-node universe divides by ``n * (n - 1)``.
        """
        ids = list(node_ids) if node_ids is not None else self.node_ids()
        n = len(ids)
        if n < 2:
            return 0.0
        universe = set(ids)
        edges = sum(
            1
            for i, row in self._rows.items() if i in universe
            for j in row if j in universe and j != i
        )
        return edges / (n * (n - 1))

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
        result = TrustMatrix()
        # Rows in order of first appearance, dimension by dimension.
        for i in dict.fromkeys(i for _, matrix in active for i in matrix._rows):
            result.replace_row(i, TrustMatrix.weighted_row(active, i))
        return result

    @staticmethod
    def weighted_row(terms: Sequence[Tuple[float, "TrustMatrix"]],
                     i: str) -> Dict[str, float]:
        """Row ``i`` of Eq. 7's ``sum_k w_k * M_k``, terms added in order.

        :meth:`weighted_sum` builds every row through here and the
        incremental pipeline re-derives its dirty TM rows through here, so
        both land on the same floats.
        """
        row: Dict[str, float] = {}
        for weight, matrix in terms:
            for j, value in matrix._rows.get(i, _EMPTY_ROW).items():
                row[j] = row.get(j, 0.0) + weight * value
        return row

    def matmul(self, other: "TrustMatrix") -> "TrustMatrix":
        """Sparse matrix product ``self @ other``.

        The inner loop walks ``self``'s row keys in sorted order so each
        output entry accumulates its products in a canonical sequence:
        value-equal operands give bit-identical products no matter how
        their row dicts were built (full rebuild vs incremental patch).
        """
        result = TrustMatrix()
        for i, row in self._rows.items():
            accumulator: Dict[str, float] = {}
            for k in sorted(row):
                other_row = other._rows.get(k)
                if not other_row:
                    continue
                v_ik = row[k]
                for j, v_kj in other_row.items():
                    accumulator[j] = accumulator.get(j, 0.0) + v_ik * v_kj
            for j, value in accumulator.items():
                if value > 0.0:
                    result.set(i, j, value)
        return result

    def power(self, n: int) -> "TrustMatrix":
        """Eq. 8: ``self ** n`` via repeated squaring (n >= 1)."""
        if n < 1:
            raise ValueError(f"matrix power requires n >= 1, got {n}")
        base = self
        result: Optional[TrustMatrix] = None
        while n:
            if n & 1:
                result = base if result is None else result.matmul(base)
            n >>= 1
            if n:
                base = base.matmul(base)
        assert result is not None
        return result

    # ------------------------------------------------------------------ #
    # Dense bridge                                                       #
    # ------------------------------------------------------------------ #

    def to_dense(self, node_ids: Optional[Sequence[str]] = None
                 ) -> Tuple[np.ndarray, List[str]]:
        """Return ``(array, ids)`` with ``array[a, b] = self[ids[a], ids[b]]``."""
        ids = list(node_ids) if node_ids is not None else self.node_ids()
        index = {node_id: position for position, node_id in enumerate(ids)}
        array = np.zeros((len(ids), len(ids)))
        for i, row in self._rows.items():
            a = index.get(i)
            if a is None:
                continue
            for j, value in row.items():
                b = index.get(j)
                if b is not None:
                    array[a, b] = value
        return array, ids

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
        return (f"TrustMatrix(rows={len(self._rows)}, "
                f"entries={self.entry_count()})")
