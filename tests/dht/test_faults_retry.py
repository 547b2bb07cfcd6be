"""Tests for repro.dht.faults and repro.dht.retry, and fault-aware routing."""

import random

import pytest

from repro.dht import (DHTError, DHTNetwork, EmptyNetworkError, FaultPlan,
                       NetworkPartitionError, RetryBudget,
                       RetryBudgetExhausted, RoutingError, RPCOutcome,
                       hash_key, lookup)
from repro.dht.messages import MessageKind, MessageTally
from repro.dht.retry import RETRY_BUDGET, backoff_delay


def _network(n, prefix="node"):
    network = DHTNetwork()
    for index in range(n):
        network.join(f"{prefix}-{index:04d}")
    return network


class TestFaultPlan:
    def test_none_is_inactive(self):
        assert not FaultPlan.none().active

    def test_any_dimension_activates(self):
        assert FaultPlan(drop_probability=0.1).active
        assert FaultPlan(crash_probability=0.1).active
        assert FaultPlan(base_latency_seconds=0.01).active
        assert FaultPlan(partitions={"a": 1}).active

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=1.0)
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(crash_probability=1.5)
        with pytest.raises(ValueError):
            FaultPlan(base_latency_seconds=-1.0)

    def test_deterministic_for_seed(self):
        outcomes_a = [FaultPlan(drop_probability=0.5, seed=9).transmit("a", "b")
                      for _ in range(1)]
        plan_a = FaultPlan(drop_probability=0.5, seed=9)
        plan_b = FaultPlan(drop_probability=0.5, seed=9)
        seq_a = [plan_a.transmit("a", "b")[0] for _ in range(50)]
        seq_b = [plan_b.transmit("a", "b")[0] for _ in range(50)]
        assert seq_a == seq_b
        assert outcomes_a[0][0] in (RPCOutcome.DELIVERED, RPCOutcome.DROPPED)

    def test_does_not_touch_global_random(self):
        random.seed(123)
        expected = random.Random(123).random()
        plan = FaultPlan(drop_probability=0.5, seed=1)
        for _ in range(20):
            plan.transmit("a", "b")
        assert random.random() == expected

    def test_partition_blocks_cross_group(self):
        plan = FaultPlan(partitions={"a": 0, "b": 1})
        assert not plan.reachable("a", "b")
        assert plan.reachable("a", "c")  # c is in the default group 0
        outcome, _ = plan.transmit("a", "b")
        assert outcome is RPCOutcome.PARTITIONED

    def test_heal_partitions(self):
        plan = FaultPlan(partitions={"a": 0, "b": 1})
        plan.heal_partitions()
        assert plan.reachable("a", "b")
        assert not plan.active

    def test_latency_sampling(self):
        plan = FaultPlan(base_latency_seconds=0.5,
                         mean_latency_jitter_seconds=0.1, seed=4)
        draws = [plan.sample_latency() for _ in range(100)]
        assert all(draw >= 0.5 for draw in draws)
        assert len(set(draws)) > 1


class TestRetryPolicy:
    def test_backoff_grows_then_caps(self):
        # 0.05 s doubling per retry, capped at 2 s, each within 10% jitter.
        rng = random.Random(0)
        delays = [backoff_delay(a, rng) for a in range(8)]
        raws = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
        for delay, raw in zip(delays, raws):
            assert 0.9 * raw <= delay <= 1.1 * raw

    def test_jitter_stays_bounded(self):
        rng = random.Random(7)
        delays = [backoff_delay(0, rng) for _ in range(50)]
        assert all(0.045 <= delay <= 0.055 for delay in delays)
        assert len(set(delays)) > 1

    def test_budget_drains(self):
        budget = RetryBudget()
        for _ in range(RETRY_BUDGET):
            assert budget.try_consume()
        assert not budget.try_consume()
        assert budget.exhausted
        assert budget.spent == RETRY_BUDGET


class TestErrorHierarchy:
    def test_all_are_runtime_errors(self):
        for error_type in (DHTError, EmptyNetworkError, RoutingError,
                           NetworkPartitionError, RetryBudgetExhausted):
            assert issubclass(error_type, RuntimeError)
            assert issubclass(error_type, DHTError) or error_type is DHTError

    def test_empty_network_lookup_is_typed(self):
        with pytest.raises(EmptyNetworkError):
            lookup(DHTNetwork(), 123)


class TestFaultAwareLookup:
    def test_inactive_plan_matches_plain_lookup(self):
        network = _network(32)
        key = hash_key("some-file")
        plain = lookup(network, key)
        injected = lookup(network, key, faults=FaultPlan.none())
        assert injected.owner is plain.owner
        assert injected.hops == plain.hops
        assert injected.path == plain.path
        assert injected.ok

    def test_lossy_lookup_still_finds_owner(self):
        network = _network(32)
        plan = FaultPlan(drop_probability=0.2, seed=5)
        for probe in range(20):
            key = hash_key(f"file-{probe}")
            result = lookup(network, key, faults=plan)
            assert result.ok
            assert result.owner is network.owner_of(key)

    def test_drops_are_tallied_and_retried(self):
        network = _network(32)
        plan = FaultPlan(drop_probability=0.4, seed=8)
        tally = MessageTally()
        for probe in range(30):
            lookup(network, hash_key(f"file-{probe}"), faults=plan,
                   tally=tally)
        assert tally.drops > 0
        assert tally.retries > 0

    def test_budget_exhaustion_returns_typed_failure(self):
        # Most lookups on a drop-heavy ring run out of reachable routes;
        # on a ring this size a few of them spend the whole budget first.
        network = _network(128)
        plan = FaultPlan(drop_probability=0.9, seed=2)
        failures = []
        for probe in range(100):
            start = network.any_node()
            key = hash_key(f"file-{probe}")
            if start is not None and lookup(network, key).owner is start:
                continue  # zero-hop lookups cannot fail
            result = lookup(network, key, faults=plan)
            if not result.ok:
                assert result.owner is None
                assert isinstance(result.error, DHTError)
                failures.append(result)
        exhausted = [result for result in failures
                     if isinstance(result.error, RetryBudgetExhausted)]
        assert exhausted
        assert all(result.retries == RETRY_BUDGET for result in exhausted)

    def test_partitioned_target_fails_typed(self):
        network = _network(8)
        key = hash_key("split-brain")
        owner = network.owner_of(key)
        start = next(node for node in network.nodes() if node is not owner)
        plan = FaultPlan(partitions={owner.user_id: 1})
        result = lookup(network, key, start=start, faults=plan)
        assert not result.ok
        assert isinstance(result.error, NetworkPartitionError)

    def test_crash_mid_rpc_removes_node(self):
        network = _network(24)
        plan = FaultPlan(crash_probability=0.5, seed=3)
        before = len(network)
        for probe in range(20):
            lookup(network, hash_key(f"file-{probe}"), faults=plan)
        assert len(network) < before

    def test_latency_accumulates(self):
        network = _network(16)
        plan = FaultPlan(base_latency_seconds=0.01, seed=1)
        key = hash_key("timed")
        result = lookup(network, key, faults=plan)
        assert result.ok
        if result.hops > 0:
            assert result.latency > 0.0
