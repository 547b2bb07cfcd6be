"""Per-node storage with TTL expiry and republication bookkeeping.

DHT entries are soft state: a record lives ``ttl`` seconds past its last
(re-)publication and is dropped afterwards, so data owned by departed users
ages out naturally — the standard technique for handling churn that
Section 4.3 alludes to ("a user will publish index information to
multi-users regularly").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, Iterable, Iterator, List, Optional, TypeVar

__all__ = ["StoredRecord", "NodeStorage", "DEFAULT_TTL_SECONDS"]

T = TypeVar("T")

#: A record's life past its last (re-)publication, unless the writer
#: says otherwise.
DEFAULT_TTL_SECONDS = 24 * 3600.0


@dataclass
class StoredRecord(Generic[T]):
    """One stored value plus its freshness metadata."""

    key: int
    owner_id: str
    value: T
    stored_at: float
    ttl: float

    def expires_at(self) -> float:
        return self.stored_at + self.ttl

    def expired(self, now: float) -> bool:
        return now >= self.expires_at()


class NodeStorage(Generic[T]):
    """Key -> per-owner records.  One owner holds one record per key.

    Each key also keeps a lower bound on its records' ``expires_at``:
    writes lower it, an expiry sweep of the key recomputes it, and a
    ``remove`` may leave it too low, which a lower bound allows.  Reads
    before the bound skip the sweep, since nothing under the key can have
    expired.
    """

    def __init__(self) -> None:
        self._records: Dict[int, Dict[str, StoredRecord[T]]] = {}
        self._earliest_expiry: Dict[int, float] = {}

    def _lower_bound(self, key: int, expires_at: float) -> None:
        earliest = self._earliest_expiry.get(key)
        if earliest is None or expires_at < earliest:
            self._earliest_expiry[key] = expires_at

    def put(self, key: int, owner_id: str, value: T, now: float,
            ttl: float = DEFAULT_TTL_SECONDS) -> StoredRecord[T]:
        """Store/refresh ``owner_id``'s record under ``key``."""
        record = StoredRecord(key=key, owner_id=owner_id, value=value,
                              stored_at=now, ttl=ttl)
        self._records.setdefault(key, {})[owner_id] = record
        self._lower_bound(key, record.expires_at())
        return record

    def put_record(self, record: StoredRecord[T]) -> StoredRecord[T]:
        """Adopt an existing record verbatim, preserving its freshness.

        Used by graceful-leave hand-off and replica repair: the copy must
        keep the original ``stored_at``/``ttl`` so repair never extends a
        record's life beyond what its publisher paid for.  An existing
        *fresher* record for the same (key, owner) is never overwritten.
        """
        per_owner = self._records.setdefault(record.key, {})
        current = per_owner.get(record.owner_id)
        if current is not None and current.stored_at >= record.stored_at:
            return current
        copied = StoredRecord(key=record.key, owner_id=record.owner_id,
                              value=record.value, stored_at=record.stored_at,
                              ttl=record.ttl)
        per_owner[record.owner_id] = copied
        self._lower_bound(record.key, copied.expires_at())
        return copied

    def contains(self, key: int, owner_id: str, now: float) -> bool:
        """Whether a live record for ``(key, owner_id)`` is held here."""
        return self.get_owner(key, owner_id, now) is not None

    def get(self, key: int, now: float) -> List[StoredRecord[T]]:
        """All live records under ``key`` (expired ones are dropped).

        In owner order: the per-owner dict is keyed by each record's
        ``owner_id``, so sorting the keys sorts the records.
        """
        self._expire_key(key, now)
        per_owner = self._records.get(key)
        if not per_owner:
            return []
        return [per_owner[owner] for owner in sorted(per_owner)]

    def live(self, key: int, now: float) -> Iterable[StoredRecord[T]]:
        """The live records under ``key`` in no particular order.

        A view for a caller that orders the records itself; it must not be
        held across writes to this storage.
        """
        self._expire_key(key, now)
        per_owner = self._records.get(key)
        return per_owner.values() if per_owner else ()

    def get_owner(self, key: int, owner_id: str,
                  now: float) -> Optional[StoredRecord[T]]:
        self._expire_key(key, now)
        return self._records.get(key, {}).get(owner_id)

    def remove(self, key: int, owner_id: str) -> bool:
        per_owner = self._records.get(key)
        if per_owner and owner_id in per_owner:
            del per_owner[owner_id]
            if not per_owner:
                del self._records[key]
                del self._earliest_expiry[key]
            return True
        return False

    def expire_all(self, now: float) -> int:
        """Drop every expired record; returns the number removed."""
        removed = 0
        for key in list(self._records):
            removed += self._expire_key(key, now)
        return removed

    def _expire_key(self, key: int, now: float) -> int:
        earliest = self._earliest_expiry.get(key)
        if earliest is None or now < earliest:
            return 0
        per_owner = self._records[key]
        stale = [owner for owner, record in per_owner.items()
                 if record.expired(now)]
        for owner in stale:
            del per_owner[owner]
        if per_owner:
            self._earliest_expiry[key] = min(
                record.expires_at() for record in per_owner.values())
        else:
            del self._records[key]
            del self._earliest_expiry[key]
        return len(stale)

    def keys(self) -> List[int]:
        return sorted(self._records)

    def records(self) -> Iterator[StoredRecord[T]]:
        for per_owner in self._records.values():
            yield from per_owner.values()

    def __len__(self) -> int:
        return sum(len(per_owner) for per_owner in self._records.values())
