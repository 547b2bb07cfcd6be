"""The DHT ring: membership, stabilisation and key ownership.

An in-process Chord-style network whose pointers are always those of the
converged ring — the in-process equivalent of Chord's periodic
stabilisation having run.  A join or failure of node ``y`` is repaired in
place: only ``y``'s neighbours change successor/predecessor, and in every
other node only the fingers whose start falls in ``(pred(y), y]`` change
owner, a contiguous index range found by arithmetic.  A rejoin over a
stale dead entry is the same repair: the fresh node takes the dead one's
id, so exactly the pointers that named the dead object are re-pointed.
:meth:`DHTNetwork.stabilize` is the full rebuild from the current
membership.  Lookup routing itself lives in
:mod:`repro.dht.routing` and uses only finger/successor pointers, so hop
counts match a real ring (O(log n)).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from .id_space import ID_BITS, ID_SPACE
from .node import DHTNode
from .storage import StoredRecord

__all__ = ["DHTNetwork"]


class DHTNetwork:
    """Tracks ring membership and provides key-ownership queries."""

    def __init__(self, finger_count: int = ID_BITS):
        if not 1 <= finger_count <= ID_BITS:
            raise ValueError(f"finger_count must be in [1, {ID_BITS}]")
        self.finger_count = finger_count
        self._nodes: Dict[str, DHTNode] = {}
        self._sorted_ids: List[int] = []
        self._by_id: Dict[int, DHTNode] = {}

    # ------------------------------------------------------------------ #
    # Membership                                                         #
    # ------------------------------------------------------------------ #

    def join(self, user_id: str) -> DHTNode:
        """Add a node for ``user_id`` (idempotent for alive nodes).

        Rejoining after a death is a *fresh* incarnation: any stale entry
        left by an unclean crash (dead node still registered) is purged so
        the new node starts with empty storage and clean pointers instead
        of resurrecting pre-crash state.
        """
        existing = self._nodes.get(user_id)
        if existing is not None:
            if existing.alive:
                return existing
            self._purge_stale(existing)
        node = DHTNode(user_id=user_id)
        stale = self._by_id.get(node.node_id)
        if stale is not None:
            if stale.alive:
                raise ValueError(f"node id collision for {user_id!r}")
            self._purge_stale(stale)
        self._nodes[user_id] = node
        self._by_id[node.node_id] = node
        bisect.insort(self._sorted_ids, node.node_id)
        self._repair(node, joined=True)
        return node

    def leave(self, user_id: str) -> None:
        """Graceful leave: hand stored records to the successor, then go."""
        node = self._require(user_id)
        successor = self.successor_of(node)
        if successor is not None and successor is not node:
            for record in list(node.storage.records()):
                successor.storage.put_record(record)
        self._remove(node)

    def fail(self, user_id: str) -> None:
        """Abrupt failure: stored records are lost."""
        node = self._require(user_id)
        self._remove(node)

    def _purge_stale(self, node: DHTNode) -> None:
        """Drop every trace of a dead-but-registered node (unclean crash)."""
        self._nodes.pop(node.user_id, None)
        if self._by_id.get(node.node_id) is node:
            self._by_id.pop(node.node_id, None)
            index = bisect.bisect_left(self._sorted_ids, node.node_id)
            if (index < len(self._sorted_ids)
                    and self._sorted_ids[index] == node.node_id):
                self._sorted_ids.pop(index)

    def _remove(self, node: DHTNode) -> None:
        node.alive = False
        self._nodes.pop(node.user_id, None)
        self._by_id.pop(node.node_id, None)
        index = bisect.bisect_left(self._sorted_ids, node.node_id)
        if index < len(self._sorted_ids) and self._sorted_ids[index] == node.node_id:
            self._sorted_ids.pop(index)
        self._repair(node, joined=False)

    def _require(self, user_id: str) -> DHTNode:
        node = self._nodes.get(user_id)
        if node is None:
            raise KeyError(f"no alive node for {user_id!r}")
        return node

    # ------------------------------------------------------------------ #
    # Topology                                                           #
    # ------------------------------------------------------------------ #

    def stabilize(self) -> None:
        """Rebuild successor/predecessor/finger pointers for all nodes.

        The full rebuild from the current membership, the reference
        :meth:`_repair` must match.  ``join``, ``leave`` and ``fail``
        repair only what they change and do not call it.
        """
        if not self._sorted_ids:
            return
        for node in self._nodes.values():
            node.successor = self._first_at_or_after(node.node_id + 1)
            node.predecessor = self._last_before(node.node_id)
            node.fingers = self._finger_table(node.node_id)

    def _repair(self, moved: DHTNode, joined: bool) -> None:
        """Re-point what the join or removal of ``moved`` changed.

        Only ``moved``'s predecessor ``p`` and successor ``s`` change a
        neighbour pointer.  In any other node ``x``, finger ``i`` changes
        exactly when its start ``x + 2**i`` falls in ``(p, moved]``, i.e.
        when ``(p - x) mod 2**ID_BITS < 2**i <= (moved - x) mod
        2**ID_BITS``: the index range from the first distance's bit length
        up to the second's.  Those fingers now point at ``moved`` after a
        join and at ``s`` after a removal.  In a ring of one or two nodes
        ``p`` is ``s``, and the two neighbour assignments set both of its
        pointers.
        """
        if not self._sorted_ids:
            return
        predecessor = self._last_before(moved.node_id)
        successor = self._first_at_or_after(moved.node_id + 1)
        if joined:
            moved.successor = successor
            moved.predecessor = predecessor
            moved.fingers = self._finger_table(moved.node_id)
            predecessor.successor = successor.predecessor = moved
            target = moved
        else:
            predecessor.successor = successor
            successor.predecessor = predecessor
            target = successor
        count = self.finger_count
        low = predecessor.node_id
        high = moved.node_id
        for node in self._nodes.values():
            if node is moved:
                continue
            first = ((low - node.node_id) % ID_SPACE).bit_length()
            end = min(((high - node.node_id) % ID_SPACE).bit_length(), count)
            if first < end:
                node.fingers[first:end] = [target] * (end - first)

    def _finger_table(self, node_id: int) -> List[DHTNode]:
        """Fingers ``i`` = first node at or after ``node_id + 2**i``.

        Consecutive fingers share an owner until their start passes it, so
        the table takes one bisect per distinct owner (about log2 N + 1),
        not one per finger.  Owner ``s`` covers every finger whose offset
        ``2**i`` is at most ``(s - node_id) mod 2**ID_BITS``; the next one
        starts at that distance's bit length.  An owner equal to the node
        itself covers the rest of the table (the ring wrapped around).
        """
        count = self.finger_count
        fingers: List[DHTNode] = []
        index = 0
        while index < count:
            owner = self._first_at_or_after(node_id + (1 << index))
            if owner.node_id == node_id:
                fingers.extend([owner] * (count - index))
                break
            end = min(((owner.node_id - node_id) % ID_SPACE).bit_length(),
                      count)
            fingers.extend([owner] * (end - index))
            index = end
        return fingers

    def _first_at_or_after(self, target: int) -> DHTNode:
        target %= ID_SPACE
        index = bisect.bisect_left(self._sorted_ids, target)
        if index == len(self._sorted_ids):
            index = 0
        return self._by_id[self._sorted_ids[index]]

    def _last_before(self, target: int) -> DHTNode:
        target %= ID_SPACE
        index = bisect.bisect_left(self._sorted_ids, target) - 1
        return self._by_id[self._sorted_ids[index]]

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    def owner_of(self, key: int) -> Optional[DHTNode]:
        """The node responsible for ``key`` (its successor on the ring)."""
        if not self._sorted_ids:
            return None
        return self._first_at_or_after(key)

    def replica_nodes(self, key: int, count: int) -> List[DHTNode]:
        """The ``count`` distinct successors of ``key`` (replica set).

        The key's owner and the ids after it in sorted order, wrapping.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        ids = self._sorted_ids
        count = min(count, len(ids))
        start = bisect.bisect_left(ids, key % ID_SPACE)
        window = ids[start:start + count]
        if len(window) < count:
            window += ids[:count - len(window)]
        by_id = self._by_id
        return [by_id[node_id] for node_id in window]

    def repair_replicas(self, replication: int, now: float) -> int:
        """Re-replicate under-replicated records (post-failure repair).

        For every live record anywhere in the network, ensure each of the
        key's current ``replication`` replica nodes holds a copy.  Copies
        preserve the original ``stored_at``/``ttl`` (repair is not
        republication: it cannot extend a record's life).  Returns the
        number of replica copies created.
        """
        if replication < 1:
            raise ValueError("replication must be >= 1")
        repaired = 0
        #: freshest record per (key, owner) across all holders.
        freshest: Dict[Tuple[int, str], StoredRecord] = {}
        for node in self.nodes():
            for record in node.storage.records():
                if record.expired(now):
                    continue
                slot = (record.key, record.owner_id)
                best = freshest.get(slot)
                if best is None or record.stored_at > best.stored_at:
                    freshest[slot] = record
        for (key, owner_id), record in sorted(
                freshest.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            for replica in self.replica_nodes(key, replication):
                if not replica.storage.contains(key, owner_id, now):
                    replica.storage.put_record(record)
                    repaired += 1
        return repaired

    def successor_of(self, node: DHTNode) -> Optional[DHTNode]:
        if not self._sorted_ids:
            return None
        return self._first_at_or_after(node.node_id + 1)

    def node(self, user_id: str) -> DHTNode:
        return self._require(user_id)

    def has_node(self, user_id: str) -> bool:
        return user_id in self._nodes

    def nodes(self) -> List[DHTNode]:
        return [self._by_id[node_id] for node_id in self._sorted_ids]

    def any_node(self) -> Optional[DHTNode]:
        if not self._sorted_ids:
            return None
        return self._by_id[self._sorted_ids[0]]

    def __len__(self) -> int:
        return len(self._sorted_ids)
