"""Tests for repro.analysis.convergence."""

import pytest

from repro.analysis import (ordering_convergence, reach_by_step,
                            steps_to_converge)
from repro.core import TrustMatrix


@pytest.fixture
def chain():
    """a -> b -> c -> d: each power reaches exactly one tier."""
    return TrustMatrix({"a": {"b": 1.0}, "b": {"c": 1.0}, "c": {"d": 1.0}})


@pytest.fixture
def dense_ring():
    """Everyone trusts everyone (uniform): converged from step one."""
    ids = [f"n{i}" for i in range(4)]
    return TrustMatrix({i: {j: 1.0 for j in ids if j != i}
                        for i in ids}).row_normalized()


class TestReachByStep:
    def test_chain_reach_is_tier_count(self, chain):
        fractions = reach_by_step(chain, max_steps=3)
        # 4 nodes -> 12 ordered pairs; step n reaches the pairs at distance
        # exactly n along the chain: 3, then 2, then 1.
        assert fractions[0] == pytest.approx(3 / 12)
        assert fractions[1] == pytest.approx(2 / 12)
        assert fractions[2] == pytest.approx(1 / 12)

    def test_dense_ring_reaches_everything_at_step_one(self, dense_ring):
        fractions = reach_by_step(dense_ring, max_steps=2)
        assert fractions[0] == pytest.approx(1.0)

    def test_validation(self, chain):
        with pytest.raises(ValueError):
            reach_by_step(chain, max_steps=0)
        with pytest.raises(ValueError):
            reach_by_step(TrustMatrix({"a": {"a": 1.0}}), observers=["a"])


class TestOrderingConvergence:
    def test_uniform_matrix_converged_immediately(self, dense_ring):
        taus = ordering_convergence(dense_ring, max_steps=3)
        assert all(tau == pytest.approx(1.0) for tau in taus)

    def test_returns_one_tau_per_transition(self, chain):
        taus = ordering_convergence(chain, max_steps=4)
        assert len(taus) == 3
        assert all(-1.0 <= tau <= 1.0 for tau in taus)

    def test_validation(self, chain):
        with pytest.raises(ValueError):
            ordering_convergence(chain, max_steps=1)


class TestStepsToConverge:
    def test_dense_converges_at_one(self, dense_ring):
        assert steps_to_converge(dense_ring, max_steps=3) == 1

    def test_none_when_never_converging(self, chain):
        # The chain's ordering keeps shifting as mass moves down the chain
        # and then vanishes; with a strict tolerance nothing qualifies.
        result = steps_to_converge(chain, max_steps=3, tolerance=1.0)
        assert result is None or result >= 1

    def test_tolerance_validation(self, dense_ring):
        with pytest.raises(ValueError):
            steps_to_converge(dense_ring, tolerance=0.0)

    def test_realistic_community_converges_fast(self):
        """A well-mixed trust community needs very few steps — the
        quantitative backbone of the paper's 'n = 1 is enough' choice."""
        import random
        rng = random.Random(4)
        ids = [f"u{i}" for i in range(30)]
        rows = {}
        for i in ids:
            for j in rng.sample(ids, 10):
                if i != j:
                    rows.setdefault(i, {})[j] = rng.uniform(0.3, 1.0)
        one_step = TrustMatrix(rows).row_normalized()
        step = steps_to_converge(one_step, max_steps=5, tolerance=0.95)
        assert step is not None and step <= 3


class TestStepsToConvergeBoundaries:
    def test_two_hub_community_converges_within_budget(self):
        """Two hubs bridge two groups; ordering settles in a few powers."""
        left = [f"l{i}" for i in range(4)]
        right = [f"r{i}" for i in range(4)]
        rows = {peer: {"hub-l": 1.0} for peer in left}
        rows.update((peer, {"hub-r": 1.0}) for peer in right)
        rows["hub-l"] = {"hub-r": 0.5}
        rows["hub-r"] = {"hub-l": 0.5}
        for i, peer in enumerate(left):
            rows["hub-l"][peer] = 0.1 * (i + 1)
        for i, peer in enumerate(right):
            rows["hub-r"][peer] = 0.1 * (i + 1)
        steps = steps_to_converge(TrustMatrix(rows).row_normalized(),
                                  max_steps=6, tolerance=0.95)
        assert steps is not None
        assert 1 <= steps <= 6

    def test_lower_tolerance_never_needs_more_steps(self, dense_ring):
        strict = steps_to_converge(dense_ring, tolerance=0.999)
        loose = steps_to_converge(dense_ring, tolerance=0.5)
        assert strict is not None and loose is not None
        assert loose <= strict

    def test_max_steps_caps_the_search(self, chain):
        # The chain keeps reordering while trust mass slides down it, so
        # a short budget finds nothing; once the nilpotent matrix dies out
        # (TM^4 = 0) successive powers trivially agree.
        assert steps_to_converge(chain, max_steps=3) is None
        assert steps_to_converge(chain, max_steps=5) == 4
        # Comparing successive powers needs at least two of them.
        with pytest.raises(ValueError, match="max_steps"):
            steps_to_converge(chain, max_steps=1)

    def test_degenerate_matrices_rejected(self):
        with pytest.raises(ValueError, match="two common keys"):
            steps_to_converge(TrustMatrix(), max_steps=3)
