"""The quorum read's merge equals a merge of each replica's sorted records.

``EvaluationOverlay._quorum_read`` takes each replica's live records in
storage order and sorts the merged result once.  Replicas here hold the
same owners with equal and unequal ``stored_at``, inserted in different
orders.  The merged records, and their order, must be those of the
sort-per-replica merge: per owner the freshest record, and on a tie the
one from the first replica in replica order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht import DHTNetwork, EvaluationOverlay, FaultPlan, KeyAuthority
from repro.dht.routing import LookupResult

OWNERS = [f"owner-{index}" for index in range(5)]
REPLICATION = 3
KEY = 12345
TTL = 1_000.0


def _sorted_merge(replicas, now):
    """The merge with every replica's records sorted by owner first."""
    freshest = {}
    for replica in replicas:
        for stored in replica.storage.get(KEY, now):
            best = freshest.get(stored.owner_id)
            if best is None or stored.stored_at > best.stored_at:
                freshest[stored.owner_id] = stored
    return sorted(freshest.values(), key=lambda r: r.owner_id)


#: Per replica: (owner, stored_at) in insertion order, one per owner.
_HOLDINGS = st.lists(
    st.lists(st.tuples(st.sampled_from(OWNERS),
                       st.sampled_from([0.0, 1.0, 2.0])),
             unique_by=lambda held: held[0]),
    min_size=REPLICATION, max_size=REPLICATION)


@settings(max_examples=150, deadline=None)
@given(holdings=_HOLDINGS)
def test_merge_matches_sort_per_replica(holdings):
    # Latency alone makes the plan active, and no RPC is ever lost.
    faults = FaultPlan(base_latency_seconds=0.001, seed=1)
    overlay = EvaluationOverlay(DHTNetwork(), KeyAuthority(),
                                replication=REPLICATION, faults=faults)
    for index in range(6):
        overlay.register_user(f"user-{index}")
    replicas = overlay.network.replica_nodes(KEY, REPLICATION)
    for index, (replica, held) in enumerate(zip(replicas, holdings)):
        for owner, stored_at in held:  # drawn order is insertion order
            replica.storage.put(KEY, owner, (index, owner), stored_at, TTL)
    result = LookupResult(key=KEY, owner=replicas[0], hops=0, path=[])
    merged, contacted = overlay._quorum_read("user-0", KEY, result, now=5.0)
    expected = _sorted_merge(replicas, now=5.0)
    assert contacted == REPLICATION
    assert [stored.owner_id for stored in merged] == sorted(
        {owner for held in holdings for owner, _ in held})
    assert len(merged) == len(expected)
    assert all(got is want for got, want in zip(merged, expected))
