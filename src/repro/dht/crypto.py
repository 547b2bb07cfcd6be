"""Simulated signatures for evaluation integrity (Section 4.2, attack 1).

"A user may forge or distort other user's evaluation ... This can be solved
by digital signature."  The simulation needs unforgeability *within the
model*, not cryptographic strength, so we use HMAC-SHA256 with per-user
secret keys held by a :class:`KeyAuthority`.  A forger who does not hold the
victim's key cannot produce a valid signature over altered content — which
is exactly the property the security benchmarks exercise.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict, Set, Tuple

__all__ = ["KeyAuthority", "SignatureError"]


class SignatureError(Exception):
    """Raised when a signature fails verification."""


@dataclass(frozen=True)
class _KeyPair:
    user_id: str
    secret: bytes


class KeyAuthority:
    """Issues per-user keys and signs/verifies byte payloads.

    In a deployment each user holds their own private key and publishes the
    public key; collapsing that into one in-process authority preserves the
    *behavioural* property (only the owner can sign as themselves) without
    real asymmetric crypto.

    Keys never change once issued, so :meth:`verify` is a pure function of
    its arguments and remembers the triples that passed.  A forged
    signature, another user's id or an altered payload is a different
    triple, so it is checked afresh and still rejected.
    """

    def __init__(self, seed: bytes = b"repro-dht"):
        self._seed = seed
        self._keys: Dict[str, _KeyPair] = {}
        self._verified: Set[Tuple[str, bytes, bytes]] = set()

    def register(self, user_id: str) -> None:
        """Issue a key for ``user_id`` (idempotent, deterministic per seed)."""
        if user_id not in self._keys:
            secret = hashlib.sha256(self._seed + user_id.encode("utf-8")).digest()
            self._keys[user_id] = _KeyPair(user_id=user_id, secret=secret)

    def is_registered(self, user_id: str) -> bool:
        return user_id in self._keys

    def sign(self, user_id: str, payload: bytes) -> bytes:
        """Sign ``payload`` as ``user_id``; the user must be registered."""
        pair = self._keys.get(user_id)
        if pair is None:
            raise SignatureError(f"no key registered for {user_id!r}")
        return hmac.new(pair.secret, payload, hashlib.sha256).digest()

    def verify(self, user_id: str, payload: bytes, signature: bytes) -> bool:
        """True iff ``signature`` is valid for ``payload`` under ``user_id``."""
        triple = (user_id, payload, signature)
        if triple in self._verified:
            return True
        pair = self._keys.get(user_id)
        if pair is None:
            return False
        expected = hmac.new(pair.secret, payload, hashlib.sha256).digest()
        if not hmac.compare_digest(expected, signature):
            return False
        self._verified.add(triple)
        return True
