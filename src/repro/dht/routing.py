"""Iterative finger-table routing with hop accounting and fault tolerance.

``Lookup(key, ...)`` — the "basic operation" of Section 4 — walks the ring
greedily: from the current node, take the farthest finger that does not
overshoot the key, until the key's owner (the first node at or past the key)
is reached.  Hop counts are returned so benchmarks can verify the O(log n)
routing cost and measure the message overhead of the evaluation layer.

Routing is *iterative and oracle-free*: termination is decided purely from
the pointers of the nodes on the route (a node owns the key when the key
falls in ``(predecessor, node]``; a successor owns it when the key falls in
``(node, successor]``), never by consulting global ring state.  Stale
fingers are tolerated via successor fallback.

When a :class:`~repro.dht.faults.FaultPlan` is supplied every hop becomes a
real RPC that can drop, crash the contacted node, or be partitioned away.
Drops are retried under :mod:`repro.dht.retry`'s discipline (capped
exponential backoff with jitter, a shared per-lookup retry budget); nodes
that stay unreachable are routed around.  When the budget drains, the
lookup returns a *typed failure* (``result.error``) instead of raising, so
degraded callers can serve partial results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, List, Optional, Set, Tuple

from ..obs.recorder import NULL_RECORDER, NullRecorder
from .faults import FaultPlan, RPCOutcome
from .id_space import ID_SPACE
from .messages import MessageKind, MessageTally
from .node import DHTNode
from .retry import (MAX_ATTEMPTS, DHTError, EmptyNetworkError,
                    NetworkPartitionError, RetryBudget, RetryBudgetExhausted,
                    RoutingError, backoff_delay)
from .ring import DHTNetwork

__all__ = ["LookupResult", "lookup"]

#: Safety bound: no sane lookup takes more hops than nodes.
_MAX_HOPS_FACTOR = 2


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a lookup: the owner node and the route taken.

    ``owner`` is ``None`` exactly when ``error`` is set — a typed failure
    (retry budget exhausted, partition, divergence) under fault injection.
    """

    key: int
    owner: Optional[DHTNode]
    hops: int
    path: List[str]
    error: Optional[DHTError] = None
    #: RPCs that timed out (dropped or crashed mid-RPC).
    timeouts: int = 0
    #: Retries spent recovering from those timeouts.
    retries: int = 0
    #: Simulated wall-clock latency accumulated over the route.
    latency: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None


def lookup(network: DHTNetwork, key: int,
           start: Optional[DHTNode] = None,
           faults: Optional[FaultPlan] = None,
           tally: Optional[MessageTally] = None,
           recorder: NullRecorder = NULL_RECORDER) -> LookupResult:
    """Route from ``start`` (default: an arbitrary node) to ``key``'s owner.

    Raises :class:`EmptyNetworkError` on an empty network and
    :class:`RoutingError` on divergence when no fault plan is active; with
    an active plan, routing failures come back as ``result.error`` instead
    so chaos runs degrade rather than crash.

    With span tracing enabled, every lookup runs inside a ``dht.lookup``
    span whose cost is the route's simulated latency (wire time plus retry
    backoff) and whose counters carry hops/retries/timeouts — the
    per-query attribution the flat ``dht_lookup`` event cannot give.
    """
    with recorder.request_span("dht.lookup") as span:
        result = _lookup_impl(network, key, start, faults, tally, recorder)
        span.add_cost(result.latency)
        span.count("hops", result.hops)
        span.count("retries", result.retries)
        span.count("timeouts", result.timeouts)
        span.annotate(ok=result.ok)
    return result


def _lookup_impl(network: DHTNetwork, key: int,
                 start: Optional[DHTNode],
                 faults: Optional[FaultPlan],
                 tally: Optional[MessageTally],
                 recorder: NullRecorder) -> LookupResult:
    if len(network) == 0:
        raise EmptyNetworkError("cannot look up in an empty network")
    key %= ID_SPACE
    current = start if start is not None else network.any_node()
    if current is None:
        raise EmptyNetworkError("network has no alive start node")

    injecting = faults is not None and faults.active
    budget = RetryBudget()
    path = [current.user_id]
    hops = 0
    timeouts = 0
    retries = 0
    latency = 0.0
    max_hops = max(len(network) * _MAX_HOPS_FACTOR, 8)
    #: Nodes that proved unreachable this lookup; fingers to them are skipped.
    unreachable: Set[int] = set()
    owner: Optional[DHTNode] = None
    error: Optional[DHTError] = None

    while True:
        if _owns_key(current, key):
            owner = current
            break
        next_node = _closest_preceding(current, key, unreachable)
        if next_node is None or next_node.node_id == current.node_id:
            # No finger makes progress: fall through to the successor.
            next_node = current.successor
        if next_node is None:
            error = RoutingError("routing failed: node has no successor")
            break
        if next_node.node_id in unreachable:
            error = RoutingError(
                f"no reachable route past {current.user_id} "
                f"toward key {key:#x}")
            break

        if injecting:
            (delivered, hop_latency, hop_timeouts, hop_retries,
             partitioned) = _contact(network, faults, budget, current,
                                     next_node, tally)
            latency += hop_latency
            timeouts += hop_timeouts
            retries += hop_retries
            if not delivered:
                if partitioned:
                    error = NetworkPartitionError(
                        f"{next_node.user_id} unreachable across partition")
                    break
                if budget.exhausted:
                    error = RetryBudgetExhausted(
                        f"retry budget drained after {budget.spent} retries "
                        f"en route to key {key:#x}")
                    break
                # Target stayed dark: route around it from where we stand.
                unreachable.add(next_node.node_id)
                continue

        current = next_node
        hops += 1
        path.append(current.user_id)
        if hops > max_hops:
            error = RoutingError(
                f"routing did not converge after {hops} hops "
                "(stale finger tables? call stabilize())")
            break

    if error is not None and not injecting:
        raise error
    result = LookupResult(key=key, owner=owner, hops=hops, path=path,
                          error=error, timeouts=timeouts, retries=retries,
                          latency=latency)
    # Record the lookup's cost before handing the result back.
    if recorder.enabled:
        recorder.event(
            "dht_lookup", key=f"{key:#x}", hops=hops, retries=retries,
            timeouts=timeouts, fallbacks=len(unreachable), ok=result.ok,
            error=type(error).__name__ if error is not None else None)
        recorder.observe("dht.lookup.hops", hops)
        recorder.observe("dht.lookup.retries", retries)
        recorder.inc("dht.lookups")
        if error is not None:
            recorder.inc("dht.lookup.failures")
    return result


def _owns_key(node: DHTNode, key: int) -> bool:
    """Oracle-free ownership: the key falls in ``(predecessor, node]``.

    Requires an alive predecessor pointer; when it is missing or dead the
    route keeps walking and terminates via the successor interval instead.
    Node ids and the lookup key are already reduced, so the ring test
    compares them directly: ``predecessor == node`` is the whole ring.
    """
    predecessor = node.predecessor
    if predecessor is None or not predecessor.alive:
        return False
    start = predecessor.node_id
    end = node.node_id
    if start < end:
        return start < key <= end
    return not end < key <= start


def _contact(network: DHTNetwork, faults: FaultPlan, budget: RetryBudget,
             src: DHTNode, dst: DHTNode, tally: Optional[MessageTally]
             ) -> Tuple[bool, float, int, int, bool]:
    """One fault-subjected RPC with per-target retries under a shared budget.

    Returns ``(delivered, latency, timeouts, retries, partitioned)``.
    """
    if not dst.alive:
        # A finger to an already-dead node: instant timeout, no wire time.
        if tally is not None:
            tally.record(MessageKind.TIMEOUT, 0)
        return False, 0.0, 1, 0, False
    latency = 0.0
    timeouts = 0
    retries = 0
    for attempt in range(MAX_ATTEMPTS):
        outcome, wire_latency = faults.transmit(src.user_id, dst.user_id)
        latency += wire_latency
        if outcome is RPCOutcome.DELIVERED:
            return True, latency, timeouts, retries, False
        if outcome is RPCOutcome.PARTITIONED:
            if tally is not None:
                tally.record(MessageKind.DROP, 0)
            return False, latency, timeouts, retries, True
        if outcome is RPCOutcome.CRASHED and dst.alive:
            # The contacted node dies mid-RPC; its records go with it.
            network.fail(dst.user_id)
        timeouts += 1
        if tally is not None:
            tally.record(MessageKind.DROP if outcome is RPCOutcome.DROPPED
                         else MessageKind.TIMEOUT, 0)
        if outcome is RPCOutcome.CRASHED:
            return False, latency, timeouts, retries, False
        if attempt + 1 >= MAX_ATTEMPTS or not budget.try_consume():
            return False, latency, timeouts, retries, False
        retries += 1
        latency += backoff_delay(attempt, faults.rng)
        if tally is not None:
            tally.record(MessageKind.RETRY, 0)
    return False, latency, timeouts, retries, False


def _closest_preceding(node: DHTNode, key: int,
                       avoid: AbstractSet[int] = frozenset()
                       ) -> Optional[DHTNode]:
    """The farthest finger strictly between ``node`` and ``key`` (Chord).

    Additionally, if the node's direct successor already owns the key,
    route straight to it.  Fingers in ``avoid`` (proven unreachable this
    lookup) are skipped — stale-finger tolerance.

    Ids are already reduced, so the ring tests compare them directly.
    When ``node_id >= key`` the interval wraps (or, at equality, is the
    whole ring but ``node`` itself), and an id is inside it exactly when
    it is not in ``[key, node_id]``.
    """
    node_id = node.node_id
    successor = node.successor
    if successor is not None and successor.node_id not in avoid:
        # Does the successor own the key: key in (node_id, successor]?
        successor_id = successor.node_id
        if (node_id < key <= successor_id if node_id < successor_id
                else not successor_id < key <= node_id):
            return successor
    if node_id < key:
        for finger in reversed(node.fingers):
            if finger is not None and node_id < finger.node_id < key \
                    and finger.alive and finger.node_id not in avoid:
                return finger
    else:
        for finger in reversed(node.fingers):
            if finger is not None and not key <= finger.node_id <= node_id \
                    and finger.alive and finger.node_id not in avoid:
                return finger
    return successor
