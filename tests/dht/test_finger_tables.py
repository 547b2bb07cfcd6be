"""Finger tables built one bisect per distinct owner equal the per-finger
definition: finger ``i`` is the first node at or after ``node_id + 2**i``."""

import random

import pytest

from repro.dht import DHTNetwork

RING_SIZES = (1, 2, 3, 60, 200)
FINGER_COUNTS = (1, 8, 160)


def _reference_fingers(network, node):
    return [network._first_at_or_after(node.finger_start(index))
            for index in range(network.finger_count)]


def _assert_tables_match(network):
    for node in network._nodes.values():
        expected = _reference_fingers(network, node)
        assert len(node.fingers) == network.finger_count
        assert all(got is want for got, want in zip(node.fingers, expected))


def _network(size, finger_count, prefix="node"):
    network = DHTNetwork(finger_count=finger_count)
    for index in range(size):
        network.join(f"{prefix}-{index:04d}")
    return network


@pytest.mark.parametrize("finger_count", FINGER_COUNTS)
@pytest.mark.parametrize("size", RING_SIZES)
class TestFingerTables:
    def test_after_joins(self, size, finger_count):
        _assert_tables_match(_network(size, finger_count))

    def test_after_graceful_leave(self, size, finger_count):
        network = _network(size + 1, finger_count)
        network.leave("node-0000")
        assert len(network) == size
        _assert_tables_match(network)

    def test_after_fail(self, size, finger_count):
        network = _network(size + 1, finger_count)
        network.fail(f"node-{size:04d}")
        assert len(network) == size
        _assert_tables_match(network)

    def test_rejoin_over_stale_dead_entry(self, size, finger_count):
        network = _network(size + 1, finger_count)
        stale = network.node("node-0000")
        stale.alive = False  # unclean crash: still registered in the ring
        network.join("late-joiner")
        # The dead entry still owns its arc until the rejoin purges it.
        _assert_tables_match(network)
        fresh = network.join("node-0000")
        assert fresh is not stale
        assert len(network) == size + 2
        _assert_tables_match(network)
        assert all(finger is not stale
                   for node in network.nodes() for finger in node.fingers)


def test_random_rings_match_reference():
    rng = random.Random(20071)
    for trial in range(40):
        finger_count = rng.choice((1, 2, 8, 40, 160))
        network = DHTNetwork(finger_count=finger_count)
        for index in range(rng.randint(1, 80)):
            network.join(f"r{trial}-{index}-{rng.random()}")
        _assert_tables_match(network)
        for user in rng.sample(sorted(network._nodes),
                               len(network) // 3):
            if len(network) > 1:
                network.fail(user)
        _assert_tables_match(network)


def test_adjacent_ids():
    """Ids 10 and 11: only finger 0 of the lower node reaches the upper;
    every other target wraps round to the lower node."""
    network = DHTNetwork(finger_count=160)
    low = network.join("a")
    high = network.join("b")
    for node, node_id in ((low, 10), (high, 11)):
        network._by_id.pop(node.node_id)
        network._sorted_ids.remove(node.node_id)
        node.node_id = node_id
        network._by_id[node_id] = node
    network._sorted_ids = sorted(network._by_id)
    network.stabilize()
    assert low.fingers[0] is high
    assert all(finger is low for finger in low.fingers[1:])
    assert all(finger is low for finger in high.fingers)
    _assert_tables_match(network)
