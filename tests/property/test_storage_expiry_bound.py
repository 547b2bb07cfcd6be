"""Property test: the per-key expiry bound never changes what storage serves.

``NodeStorage`` skips a key's expiry sweep while ``now`` is before a lower
bound on the key's ``expires_at``.  Any interleaving of ``put``,
``put_record``, ``remove``, ``get``, ``get_owner`` and ``expire_all`` must
give the same results, and leave the same records in the same order, as a
model that sweeps on every read.  Times and TTLs come from small integer
sets, so expiries coincide and reads land exactly on the boundary.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.storage import NodeStorage, StoredRecord

KEYS = (1, 2, 3)
OWNERS = ("a", "b", "c")


class ModelStorage:
    """The storage contract without a bound: every read sweeps its key."""

    def __init__(self):
        self.records = {}

    def put(self, key, owner_id, value, now, ttl):
        record = StoredRecord(key=key, owner_id=owner_id, value=value,
                              stored_at=now, ttl=ttl)
        self.records.setdefault(key, {})[owner_id] = record
        return record

    def put_record(self, record):
        per_owner = self.records.setdefault(record.key, {})
        current = per_owner.get(record.owner_id)
        if current is not None and current.stored_at >= record.stored_at:
            return current
        copied = StoredRecord(key=record.key, owner_id=record.owner_id,
                              value=record.value, stored_at=record.stored_at,
                              ttl=record.ttl)
        per_owner[record.owner_id] = copied
        return copied

    def get(self, key, now):
        self.expire_key(key, now)
        return sorted(self.records.get(key, {}).values(),
                      key=lambda r: r.owner_id)

    def get_owner(self, key, owner_id, now):
        self.expire_key(key, now)
        return self.records.get(key, {}).get(owner_id)

    def remove(self, key, owner_id):
        per_owner = self.records.get(key)
        if per_owner and owner_id in per_owner:
            del per_owner[owner_id]
            if not per_owner:
                del self.records[key]
            return True
        return False

    def expire_all(self, now):
        return sum(self.expire_key(key, now) for key in list(self.records))

    def expire_key(self, key, now):
        per_owner = self.records.get(key)
        if not per_owner:
            return 0
        stale = [owner for owner, record in per_owner.items()
                 if record.expired(now)]
        for owner in stale:
            del per_owner[owner]
        if not per_owner:
            del self.records[key]
        return len(stale)

    def all_records(self):
        for per_owner in self.records.values():
            yield from per_owner.values()


_times = st.integers(min_value=0, max_value=12).map(float)
_ttls = st.integers(min_value=1, max_value=4).map(float)
_keys = st.sampled_from(KEYS)
_owners = st.sampled_from(OWNERS)

_operations = st.one_of(
    st.tuples(st.just("put"), _keys, _owners, st.integers(0, 99), _times,
              _ttls),
    st.tuples(st.just("put_record"), _keys, _owners, st.integers(0, 99),
              _times, _ttls),
    st.tuples(st.just("remove"), _keys, _owners),
    st.tuples(st.just("get"), _keys, _times),
    st.tuples(st.just("get_owner"), _keys, _owners, _times),
    st.tuples(st.just("expire_all"), _times),
)


def _fields(record):
    if record is None:
        return None
    return (record.key, record.owner_id, record.value, record.stored_at,
            record.ttl)


def _apply(storage, operation):
    name, *args = operation
    if name == "put":
        key, owner, value, now, ttl = args
        return _fields(storage.put(key, owner, value, now, ttl))
    if name == "put_record":
        key, owner, value, stored_at, ttl = args
        return _fields(storage.put_record(StoredRecord(
            key=key, owner_id=owner, value=value, stored_at=stored_at,
            ttl=ttl)))
    if name == "get":
        return [_fields(record) for record in storage.get(*args)]
    if name == "get_owner":
        return _fields(storage.get_owner(*args))
    return getattr(storage, name)(*args)


@given(operations=st.lists(_operations, max_size=60))
@settings(max_examples=300, deadline=None)
def test_bounded_storage_equals_model(operations):
    storage = NodeStorage()
    model = ModelStorage()
    for operation in operations:
        assert _apply(storage, operation) == _apply(model, operation)
        assert ([_fields(record) for record in storage.records()]
                == [_fields(record) for record in model.all_records()])
        assert storage.keys() == sorted(model.records)
