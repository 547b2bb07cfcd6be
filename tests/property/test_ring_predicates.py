"""Property tests: the route walk's ring tests agree with ``in_interval``.

``repro.dht.routing`` compares already-reduced ids directly instead of
calling ``in_interval``, which reduces every argument mod 2¹⁶⁰.  Each of
its three interval tests must give ``in_interval``'s answer for any
reduced ``(value, start, end)``: the ownership test ``(predecessor, node]``,
the successor test ``(node, successor]`` and the finger test
``(node, key)``.  Draws force ``start == end`` (the whole ring), a value on
either bound and wrap-around.  A second property replays whole lookups on
random rings with drops, latency and crashes, once with the route walk as
it is and once with its two helpers rebuilt on ``in_interval``, and
requires the same routes, counts and message tally.
"""

import random
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dht import DHTNetwork, FaultPlan, MessageTally, in_interval
from repro.dht import routing
from repro.dht.id_space import ID_SPACE
from repro.dht.node import DHTNode

_EDGES = [0, 1, 2, ID_SPACE // 2, ID_SPACE - 2, ID_SPACE - 1]
_IDS = st.one_of(st.integers(0, ID_SPACE - 1), st.sampled_from(_EDGES))


@st.composite
def _triples(draw):
    """A reduced ``(value, start, end)``, often with coinciding ids."""
    start = draw(_IDS)
    end = draw(st.one_of(_IDS, st.just(start)))
    value = draw(st.one_of(_IDS, st.sampled_from([start, end])))
    return value, start, end


def _node(node_id, name="n"):
    return DHTNode(f"{name}-{node_id:x}", node_id=node_id)


@settings(max_examples=400, deadline=None)
@given(_triples())
@example((5, 7, 7))                    # whole ring, value inside
@example((7, 7, 7))                    # whole ring, value on the bound
@example((ID_SPACE - 1, 10, 3))        # wrap, value before zero
@example((1, 10, 3))                   # wrap, value after zero
@example((3, 10, 3))                   # wrap, value on the end
@example((10, 10, 3))                  # wrap, value on the start
def test_owns_key_matches_inclusive_interval(triple):
    value, start, end = triple
    node = _node(end)
    node.predecessor = _node(start, "pred")
    assert routing._owns_key(node, value) == in_interval(
        value, start, end, inclusive_end=True)


@settings(max_examples=400, deadline=None)
@given(_triples())
@example((5, 7, 7))
@example((7, 7, 7))
@example((ID_SPACE - 1, 10, 3))
@example((3, 10, 3))
@example((10, 10, 3))
def test_finger_test_matches_open_interval(triple):
    """A lone finger at ``value`` is taken iff it lies in ``(start, key)``."""
    value, start, key = triple
    node = _node(start)
    finger = _node(value, "finger")
    node.fingers = [finger]
    chosen = routing._closest_preceding(node, key)
    assert (chosen is finger) == in_interval(value, start, key)


@settings(max_examples=400, deadline=None)
@given(_triples())
@example((5, 7, 7))
@example((7, 7, 7))
@example((ID_SPACE - 1, 10, 3))
@example((3, 10, 3))
@example((10, 10, 3))
@example((11, 10, 12))
def test_successor_test_matches_inclusive_interval(triple):
    """The successor is taken iff the key lies in ``(node, successor]``.

    The one finger sits at ``start + 1``, the first id past the node.  It
    is in every ``(node, successor]``, so when the successor test fails the
    key is not ``start + 1`` and the finger lies in ``(node, key)``: the
    walk returns the finger exactly when the successor test fails.
    """
    key, start, end = triple
    node = _node(start)
    successor = _node(end, "succ")
    finger = _node((start + 1) % ID_SPACE, "finger")
    node.successor = successor
    node.fingers = [finger]
    chosen = routing._closest_preceding(node, key)
    assert chosen is successor or chosen is finger
    assert (chosen is successor) == in_interval(
        key, start, end, inclusive_end=True)


# ---------------------------------------------------------------------- #
# Whole lookups against a walk built on in_interval                      #
# ---------------------------------------------------------------------- #

def _reference_owns_key(node, key):
    predecessor = node.predecessor
    return (predecessor is not None and predecessor.alive
            and in_interval(key, predecessor.node_id, node.node_id,
                            inclusive_end=True))


def _reference_closest_preceding(node, key, avoid=frozenset()):
    successor = node.successor
    if successor is not None and successor.node_id not in avoid \
            and in_interval(key, node.node_id, successor.node_id,
                            inclusive_end=True):
        return successor
    for finger in reversed(node.fingers):
        if finger is None or not finger.alive or finger.node_id in avoid:
            continue
        if in_interval(finger.node_id, node.node_id, key):
            return finger
    return successor


def _run_lookups(peers, stale, finger_count, drop, crash, seed, draws):
    """Build the ring, leave ``stale`` nodes dead in place, run lookups."""
    network = DHTNetwork(finger_count=finger_count)
    users = [f"peer-{index:03d}" for index in range(peers)]
    for user in users:
        network.join(user)
    for user in users[:stale]:
        network.node(user).alive = False  # dead, fingers still point here
    faults = FaultPlan(drop_probability=drop, crash_probability=crash,
                       base_latency_seconds=0.01,
                       mean_latency_jitter_seconds=0.02, seed=seed)
    tally = MessageTally()
    routes = []
    for start_draw, key in draws:
        alive = [node for node in network.nodes() if node.alive]
        if not alive:
            break
        start = alive[start_draw % len(alive)]
        result = routing.lookup(network, key, start=start, faults=faults,
                                tally=tally)
        routes.append((result.path, result.hops, result.retries,
                       result.timeouts, result.latency,
                       type(result.error).__name__,
                       result.owner.user_id if result.owner else None))
    return routes, dict(tally.counts), dict(tally.bytes_sent)


@settings(max_examples=40, deadline=None)
@given(peers=st.integers(1, 40), stale=st.integers(0, 6),
       finger_count=st.sampled_from([1, 4, 160]),
       drop=st.sampled_from([0.0, 0.05, 0.3, 0.7]),
       crash=st.sampled_from([0.0, 0.02, 0.2]),
       seed=st.integers(0, 2 ** 16))
def test_lookups_match_a_walk_on_in_interval(peers, stale, finger_count,
                                             drop, crash, seed):
    rng = random.Random(seed)
    draws = []
    for _ in range(25):
        key = rng.choice([rng.randrange(ID_SPACE),
                          rng.randrange(ID_SPACE * 3),   # unreduced key
                          DHTNode(f"peer-{rng.randrange(peers):03d}").node_id])
        draws.append((rng.randrange(1 << 30), key))
    stale = min(stale, peers - 1)
    walked = _run_lookups(peers, stale, finger_count, drop, crash, seed,
                          draws)
    with mock.patch.object(routing, "_owns_key", _reference_owns_key), \
            mock.patch.object(routing, "_closest_preceding",
                              _reference_closest_preceding):
        reference = _run_lookups(peers, stale, finger_count, drop, crash,
                                 seed, draws)
    assert walked == reference
