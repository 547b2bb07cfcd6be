"""Stateful property test: a ring repaired in place equals a full rebuild.

``DHTNetwork.join``/``leave``/``fail`` re-point only the neighbours and
fingers the moved node affects.  After every membership change, including
an unclean crash (the node stays registered, dead) and a rejoin over that
dead entry, each registered node's successor, predecessor and every finger
must be the very node object a from-scratch build picks.  The machine runs
at finger counts 1, 8 and 160, so the repaired index range is capped, cut
short and whole.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.dht import DHTNetwork
from tests.dht.test_finger_tables import _reference_fingers

USER_POOL = [f"peer-{index:02d}" for index in range(14)]


class RingRepairMachine(RuleBasedStateMachine):
    finger_count = 160

    def __init__(self):
        super().__init__()
        self.network = DHTNetwork(finger_count=self.finger_count)

    def _registered(self, alive):
        return sorted(user for user, node in self.network._nodes.items()
                      if node.alive is alive)

    @rule(user=st.sampled_from(USER_POOL))
    def join(self, user):
        self.network.join(user)

    @precondition(lambda self: self._registered(alive=True))
    @rule(data=st.data())
    def leave(self, data):
        self.network.leave(data.draw(st.sampled_from(
            self._registered(alive=True))))

    @precondition(lambda self: self._registered(alive=True))
    @rule(data=st.data())
    def fail(self, data):
        self.network.fail(data.draw(st.sampled_from(
            self._registered(alive=True))))

    @precondition(lambda self: self._registered(alive=True))
    @rule(data=st.data())
    def crash_uncleanly(self, data):
        """The node dies but stays registered, owning its arc."""
        user = data.draw(st.sampled_from(self._registered(alive=True)))
        self.network.node(user).alive = False

    @precondition(lambda self: self._registered(alive=False))
    @rule(data=st.data())
    def rejoin_over_dead_entry(self, data):
        user = data.draw(st.sampled_from(self._registered(alive=False)))
        stale = self.network.node(user)
        fresh = self.network.join(user)
        assert fresh is not stale and fresh.alive

    @invariant()
    def pointers_match_full_rebuild(self):
        network = self.network
        for node in network._nodes.values():
            assert node.successor is network._first_at_or_after(
                node.node_id + 1)
            assert node.predecessor is network._last_before(node.node_id)
            expected = _reference_fingers(network, node)
            assert len(node.fingers) == network.finger_count
            assert all(got is want
                       for got, want in zip(node.fingers, expected))


_SETTINGS = settings(max_examples=30, stateful_step_count=25, deadline=None)


class OneFingerMachine(RingRepairMachine):
    finger_count = 1


class EightFingerMachine(RingRepairMachine):
    finger_count = 8


TestRingRepairFullTable = RingRepairMachine.TestCase
TestRingRepairFullTable.settings = _SETTINGS
TestRingRepairOneFinger = OneFingerMachine.TestCase
TestRingRepairOneFinger.settings = _SETTINGS
TestRingRepairEightFingers = EightFingerMachine.TestCase
TestRingRepairEightFingers.settings = _SETTINGS
