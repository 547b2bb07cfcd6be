"""Round-based Chord stabilisation: eventual consistency made explicit.

:class:`~repro.dht.ring.DHTNetwork` stabilises instantly and globally —
convenient, but it hides the property real Chord relies on: pointers are
repaired *gradually* by periodic local stabilisation, and lookups stay
correct (via successor traversal) even while fingers are stale.

:class:`StabilizingDHTNetwork` makes that explicit.  Membership changes do
NOT rebuild anything; instead each :meth:`stabilize_round` performs one
round of local repairs per node, Chord-style:

1. successor repair — if a node's successor is dead, fall through its
   successor list to the first alive candidate;
2. ``stabilize()`` — ask the successor for its predecessor and adopt it if
   it sits between us and the successor; ``notify`` the successor;
3. fix one finger per round (round-robin over finger indices), resolved
   through the node's *own current* pointers, not an oracle.

The tests drive churn bursts and verify the eventual-consistency contract:
after enough rounds, every lookup agrees with the ideal ring.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .id_space import in_interval
from .node import DHTNode
from .retry import RoutingError
from .ring import DHTNetwork

__all__ = ["StabilizingDHTNetwork"]

#: Finger-table size used by the incremental network.  2**16 node-id space
#: coverage per finger is plenty for test-scale rings and keeps rounds fast.
_FINGERS = 24
#: Successor-list length (Chord's resilience parameter r).
_SUCCESSOR_LIST = 4


class StabilizingDHTNetwork(DHTNetwork):
    """A DHTNetwork whose pointers converge only through stabilise rounds."""

    def __init__(self):
        super().__init__(finger_count=_FINGERS)
        self._successor_lists: Dict[int, List[DHTNode]] = {}
        self._next_finger: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Membership: local effects only                                     #
    # ------------------------------------------------------------------ #

    def join(self, user_id: str) -> DHTNode:
        """Join via an existing node's lookup; no global repair.

        As in the base ring, rejoining after a death is a fresh incarnation:
        stale dead-node bookkeeping is purged, never resurrected.
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

        bootstrap = self.any_node()
        self._register(node)
        if bootstrap is None:
            node.successor = node
            node.predecessor = node
            node.fingers = [node] * self.finger_count
        else:
            successor = self._walk_to_owner(bootstrap, node.node_id)
            node.successor = successor
            node.predecessor = None
            node.fingers = [successor] * self.finger_count
        self._successor_lists[node.node_id] = [node.successor]
        self._next_finger[node.node_id] = 0
        return node

    def _register(self, node: DHTNode) -> None:
        import bisect
        self._nodes[node.user_id] = node
        self._by_id[node.node_id] = node
        bisect.insort(self._sorted_ids, node.node_id)

    def fail(self, user_id: str) -> None:
        """Abrupt failure: nothing is repaired until stabilise rounds run."""
        node = self._nodes.get(user_id)
        if node is None:
            raise KeyError(f"no alive node for {user_id!r}")
        import bisect
        node.alive = False
        self._nodes.pop(user_id, None)
        self._by_id.pop(node.node_id, None)
        index = bisect.bisect_left(self._sorted_ids, node.node_id)
        if (index < len(self._sorted_ids)
                and self._sorted_ids[index] == node.node_id):
            self._sorted_ids.pop(index)
        self._successor_lists.pop(node.node_id, None)
        self._next_finger.pop(node.node_id, None)

    def leave(self, user_id: str) -> None:
        """Graceful leave still hands data off, but repairs are deferred."""
        node = self._nodes.get(user_id)
        if node is None:
            raise KeyError(f"no alive node for {user_id!r}")
        successor = self._first_alive(self._successor_chain(node))
        if successor is not None and successor is not node:
            for record in list(node.storage.records()):
                successor.storage.put_record(record)
        self.fail(user_id)

    def stabilize(self) -> None:
        """Override the oracle: one incremental round instead."""
        self.stabilize_round()

    def _purge_stale(self, node: DHTNode) -> None:
        super()._purge_stale(node)
        self._successor_lists.pop(node.node_id, None)
        self._next_finger.pop(node.node_id, None)

    # ------------------------------------------------------------------ #
    # Incremental repair                                                 #
    # ------------------------------------------------------------------ #

    def stabilize_round(self) -> None:
        """One Chord stabilisation round across all alive nodes."""
        for node in self.nodes():
            self._repair_successor(node)
            self._stabilize_node(node)
            self._fix_one_finger(node)

    def stabilize_until_consistent(self, max_rounds: int = 64) -> int:
        """Run rounds until pointers match the ideal ring; return rounds."""
        for round_number in range(1, max_rounds + 1):
            self.stabilize_round()
            if self._is_consistent():
                return round_number
        raise RoutingError(
            f"stabilisation did not converge in {max_rounds} rounds")

    def _is_consistent(self) -> bool:
        nodes = self.nodes()
        for node in nodes:
            ideal_successor = self._first_at_or_after(node.node_id + 1)
            if node.successor is not ideal_successor:
                return False
            for index in range(self.finger_count):
                ideal = self._first_at_or_after(node.finger_start(index))
                if node.fingers[index] is not ideal:
                    return False
        return True

    # --- local repairs ------------------------------------------------ #

    def _successor_chain(self, node: DHTNode) -> List[DHTNode]:
        chain = [node.successor] if node.successor is not None else []
        chain += self._successor_lists.get(node.node_id, [])
        return chain

    def _first_alive(self, candidates: List[DHTNode]) -> Optional[DHTNode]:
        for candidate in candidates:
            if candidate is not None and candidate.alive:
                return candidate
        return None

    def _repair_successor(self, node: DHTNode) -> None:
        if node.successor is not None and node.successor.alive:
            return
        replacement = self._first_alive(self._successor_chain(node))
        if replacement is None or replacement is node.successor:
            # Last resort: walk the finger table for any alive node.
            replacement = self._first_alive(list(node.fingers)) or node
        node.successor = replacement

    def _stabilize_node(self, node: DHTNode) -> None:
        successor = node.successor
        if successor is None or not successor.alive:
            return
        candidate = successor.predecessor
        if (candidate is not None and candidate.alive
                and in_interval(candidate.node_id, node.node_id,
                                successor.node_id)):
            node.successor = candidate
            successor = candidate
        # notify: the successor adopts us as predecessor if we are closer.
        predecessor = successor.predecessor
        if (successor is not node
                and (predecessor is None or not predecessor.alive
                     or in_interval(node.node_id, predecessor.node_id,
                                    successor.node_id))):
            successor.predecessor = node
        # refresh the successor list from the (new) successor's list.
        chain = [successor] + [
            entry for entry in self._successor_lists.get(
                successor.node_id, []) if entry.alive
        ]
        self._successor_lists[node.node_id] = chain[:_SUCCESSOR_LIST]

    def _fix_one_finger(self, node: DHTNode) -> None:
        index = self._next_finger.get(node.node_id, 0)
        target = node.finger_start(index)
        owner = self._walk_to_owner(node, target)
        if owner is not None:
            while len(node.fingers) < self.finger_count:
                node.fingers.append(node.successor or node)
            node.fingers[index] = owner
        self._next_finger[node.node_id] = (index + 1) % self.finger_count

    def _walk_to_owner(self, start: DHTNode, key: int
                       ) -> Optional[DHTNode]:
        """Find the key's owner using only local pointers (no oracle).

        Greedy finger steps with successor fallback; bounded walk.
        """
        current = start
        for _ in range(4 * max(len(self), 4)):
            successor = current.successor
            if successor is None or not successor.alive:
                successor = self._first_alive(self._successor_chain(current))
                if successor is None:
                    return current
                current.successor = successor
            if current is successor:
                return current
            if in_interval(key, current.node_id, successor.node_id,
                           inclusive_end=True):
                return successor
            next_node = None
            for finger in reversed(current.fingers):
                if (finger is not None and finger.alive
                        and in_interval(finger.node_id, current.node_id,
                                        key)):
                    next_node = finger
                    break
            current = next_node if next_node is not None else successor
        return current
