"""The DHT identifier space: a 160-bit ring with clockwise distance.

Node and key identifiers are SHA-1 hashes (160 bits), as in Chord; all
arithmetic is modulo ``2**160``.  Deterministic helpers hash arbitrary
strings into the space.
"""

from __future__ import annotations

import hashlib

__all__ = ["ID_BITS", "ID_SPACE", "hash_key", "distance", "in_interval"]

ID_BITS = 160
ID_SPACE = 1 << ID_BITS


def hash_key(value: str) -> int:
    """Map an arbitrary string into the identifier space (SHA-1)."""
    digest = hashlib.sha1(value.encode("utf-8")).digest()
    return int.from_bytes(digest, "big")


def distance(from_id: int, to_id: int) -> int:
    """Clockwise ring distance from ``from_id`` to ``to_id``."""
    return (to_id - from_id) % ID_SPACE


def in_interval(value: int, start: int, end: int,
                inclusive_end: bool = False) -> bool:
    """Is ``value`` in the clockwise interval (start, end) on the ring?

    Handles wrap-around.  With ``inclusive_end`` the interval is
    ``(start, end]`` — the form Chord uses for successor ownership.
    ``start == end`` is the whole ring, without ``start`` unless the end
    is inclusive.

    Every argument is reduced mod ``2**160`` first, so any int is accepted.
    The route walk (:mod:`repro.dht.routing`) tests ids that are already
    reduced and inlines the same three cases without the modulus;
    ``tests/property/test_ring_predicates.py`` holds the two to agreement.
    """
    value %= ID_SPACE
    start %= ID_SPACE
    end %= ID_SPACE
    if start == end:
        # The interval covers the whole ring (excluding start itself).
        return value != start or inclusive_end
    if start < end:
        return (start < value < end) or (inclusive_end and value == end)
    return (value > start or value < end) or (inclusive_end and value == end)
