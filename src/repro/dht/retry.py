"""Typed DHT failures and the retry discipline (capped backoff, budget).

Real overlays never get to assume delivery: every RPC can time out, and the
caller must decide how often to retry and how long to wait.  This module
provides the two pieces the rest of :mod:`repro.dht` builds on:

* a :class:`DHTError` exception hierarchy so callers can distinguish "the
  network is empty" from "routing diverged" from "the retry budget ran dry"
  (the seed used bare ``assert``/``RuntimeError``, which vanish under
  ``python -O`` and are indistinguishable to callers);
* the retry discipline: at most :data:`MAX_ATTEMPTS` tries per target,
  capped exponential backoff with jitter (:func:`backoff_delay`), and a
  per-operation :class:`RetryBudget` so a single lookup cannot retry
  forever on a partitioned target.

``DHTError`` deliberately subclasses :class:`RuntimeError`: existing callers
(and tests) that caught ``RuntimeError`` keep working, while new callers can
catch the precise subtype.
"""

from __future__ import annotations

import random

__all__ = [
    "DHTError",
    "EmptyNetworkError",
    "RoutingError",
    "NetworkPartitionError",
    "RetryBudgetExhausted",
    "RetryBudget",
    "MAX_ATTEMPTS",
    "RETRY_BUDGET",
    "backoff_delay",
]

#: Tries against *one* target before it counts as unreachable.
MAX_ATTEMPTS = 4
#: Retry ``k`` (0-based) waits ``BASE_DELAY_SECONDS * BACKOFF_FACTOR ** k``,
#: capped at ``MAX_DELAY_SECONDS`` and jittered by ``±JITTER_FRACTION``.
BASE_DELAY_SECONDS = 0.05
BACKOFF_FACTOR = 2.0
MAX_DELAY_SECONDS = 2.0
JITTER_FRACTION = 0.1
#: Retries one whole operation may spend: a lookup contacts many nodes,
#: each with its own attempts, but they share one budget.
RETRY_BUDGET = 48


class DHTError(RuntimeError):
    """Base class for all DHT overlay failures."""


class EmptyNetworkError(DHTError):
    """An operation was attempted against a network with no alive nodes."""


class RoutingError(DHTError):
    """Routing diverged (stale pointers, no successor, hop bound exceeded)."""


class NetworkPartitionError(DHTError):
    """Source and destination sit in different network partitions."""


class RetryBudgetExhausted(DHTError):
    """The operation's retry budget drained before it could complete."""


def backoff_delay(attempt: int, rng: random.Random) -> float:
    """Delay before retry number ``attempt`` (0-based), jittered.

    Deterministic for a given ``rng`` state — chaos sweeps stay
    reproducible because the fault plan owns the only RNG.
    """
    raw = min(BASE_DELAY_SECONDS * BACKOFF_FACTOR ** attempt,
              MAX_DELAY_SECONDS)
    spread = JITTER_FRACTION * (2.0 * rng.random() - 1.0)
    return max(raw * (1.0 + spread), 0.0)


class RetryBudget:
    """Mutable per-operation retry counter drawn down by each retry."""

    def __init__(self) -> None:
        self.remaining = RETRY_BUDGET
        self.spent = 0

    def try_consume(self) -> bool:
        """Consume one retry; ``False`` when the budget is exhausted."""
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        self.spent += 1
        return True

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0
