"""The DHT ring: membership, stabilisation and key ownership.

An in-process Chord-style network.  Membership changes (join/leave/fail) are
followed by :meth:`DHTNetwork.stabilize`, which rebuilds successor,
predecessor and finger pointers from the current alive set — the in-process
equivalent of Chord's periodic stabilisation converging.  Lookup routing
itself lives in :mod:`repro.dht.routing` and uses only finger/successor
pointers, so hop counts match a real ring (O(log n)).
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
        self.stabilize()
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
        self.stabilize()

    def _require(self, user_id: str) -> DHTNode:
        node = self._nodes.get(user_id)
        if node is None:
            raise KeyError(f"no alive node for {user_id!r}")
        return node

    # ------------------------------------------------------------------ #
    # Topology                                                           #
    # ------------------------------------------------------------------ #

    def stabilize(self) -> None:
        """Rebuild successor/predecessor/finger pointers for all nodes."""
        if not self._sorted_ids:
            return
        for node in self._nodes.values():
            node.successor = self._first_at_or_after(node.node_id + 1)
            node.predecessor = self._last_before(node.node_id)
            node.fingers = self._finger_table(node.node_id)

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
        """The ``count`` distinct successors of ``key`` (replica set)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if not self._sorted_ids:
            return []
        replicas: List[DHTNode] = []
        node = self.owner_of(key)
        seen = set()
        while node is not None and node.node_id not in seen and len(replicas) < count:
            replicas.append(node)
            seen.add(node.node_id)
            node = self.successor_of(node)
        return replicas

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
