"""User-based direct trust (Section 3.1.3, Eq. 6).

Users can rate each other directly.  The paper supports three idioms:

* an explicit numeric rating ``UT_ij`` in ``[0, 1]``;
* a *friend list* — friends "should be assigned with a large UT";
* a *blacklist* — blacklisted users "should be assigned with zero".

Eq. 6 row-normalises ``UT`` into the user-based one-step matrix ``UM``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..lint.contracts import check_row_stochastic
from .journal_table import JournalSink, check_record
from .matrix import TrustMatrix, normalize_rows, retotal

__all__ = ["UserTrustStore", "build_user_trust_matrix",
           "UserTrustAccumulator", "FRIEND_TRUST", "DEFAULT_RATING"]

# Value assigned to friend-list members ("a large UT").
FRIEND_TRUST = 1.0
# Value used when a rank event carries no magnitude.
DEFAULT_RATING = 0.5


@dataclass
class UserTrustStore:
    """Direct user-to-user ratings plus friend lists and blacklists.

    Blacklisting dominates: a blacklisted user's effective ``UT`` is zero no
    matter what rating or friendship existed before.
    """

    _ratings: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: rater -> the users they rated: :attr:`_ratings`' keys by rater, so
    #: one user's relationships need no scan of every rating.
    _ratees: Dict[str, Set[str]] = field(default_factory=dict, repr=False,
                                         compare=False)
    _friends: Dict[str, Set[str]] = field(default_factory=dict)
    _blacklists: Dict[str, Set[str]] = field(default_factory=dict)
    #: Raters whose relationships changed since the last :meth:`clear_dirty`
    #: — each one names a UM row the incremental pipeline must re-derive.
    _dirty_raters: Set[str] = field(default_factory=set)
    #: Write-ahead hook (see :mod:`~repro.core.journal_table`): mutators
    #: hand it their record before the mutation lands; the default only
    #: checks it.
    journal: JournalSink = field(default=check_record, repr=False,
                                 compare=False)

    # ------------------------------------------------------------------ #
    # Mutation                                                           #
    # ------------------------------------------------------------------ #

    def rate(self, rater: str, ratee: str, rating: float = DEFAULT_RATING) -> None:
        """Record ``rater``'s numeric rating of ``ratee`` in [0, 1]."""
        if rater == ratee:
            raise ValueError("a user cannot rate itself")
        if not 0.0 <= rating <= 1.0:
            raise ValueError(f"rating must be in [0,1], got {rating}")
        self.journal("user.rate", rater, ratee, rating)
        self._ratings[(rater, ratee)] = rating
        self._ratees.setdefault(rater, set()).add(ratee)
        self._dirty_raters.add(rater)

    def add_friend(self, user: str, friend: str) -> None:
        if user == friend:
            raise ValueError("a user cannot befriend itself")
        self.journal("user.friend", user, friend)
        self._friends.setdefault(user, set()).add(friend)
        # Friendship revokes a standing blacklist entry.
        self._blacklists.get(user, set()).discard(friend)
        self._dirty_raters.add(user)

    def add_to_blacklist(self, user: str, target: str) -> None:
        if user == target:
            raise ValueError("a user cannot blacklist itself")
        self.journal("user.blacklist", user, target)
        self._blacklists.setdefault(user, set()).add(target)
        self._friends.get(user, set()).discard(target)
        self._dirty_raters.add(user)

    def remove_friend(self, user: str, friend: str) -> None:
        self.journal("user.unfriend", user, friend)
        self._friends.get(user, set()).discard(friend)
        self._dirty_raters.add(user)

    def remove_from_blacklist(self, user: str, target: str) -> None:
        self.journal("user.unblacklist", user, target)
        self._blacklists.get(user, set()).discard(target)
        self._dirty_raters.add(user)

    # ------------------------------------------------------------------ #
    # Delta tracking                                                     #
    # ------------------------------------------------------------------ #

    def dirty_raters(self) -> Set[str]:
        """Raters whose UM row inputs changed since the last clear."""
        return set(self._dirty_raters)

    @property
    def has_dirty(self) -> bool:
        return bool(self._dirty_raters)

    def clear_dirty(self) -> None:
        self._dirty_raters.clear()

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    def trust(self, user: str, other: str) -> Optional[float]:
        """Effective ``UT_user,other``; ``None`` when no relationship exists.

        Precedence: blacklist (0.0) > friendship (FRIEND_TRUST) > rating.
        """
        if other in self._blacklists.get(user, ()):
            return 0.0
        if other in self._friends.get(user, ()):
            return FRIEND_TRUST
        return self._ratings.get((user, other))

    def is_friend(self, user: str, other: str) -> bool:
        return other in self._friends.get(user, ())

    def is_blacklisted(self, user: str, other: str) -> bool:
        return other in self._blacklists.get(user, ())

    def friends_of(self, user: str) -> Set[str]:
        return set(self._friends.get(user, ()))

    def blacklist_of(self, user: str) -> Set[str]:
        return set(self._blacklists.get(user, ()))

    def raters(self) -> Set[str]:
        """All users who expressed any user-trust relationship."""
        users = set(self._ratees)
        users.update(self._friends)
        users.update(self._blacklists)
        return users

    def relationships_of(self, user: str) -> Dict[str, float]:
        """All effective non-None UT values expressed by ``user``."""
        targets = set(self._ratees.get(user, ()))
        targets.update(self._friends.get(user, ()))
        targets.update(self._blacklists.get(user, ()))
        result: Dict[str, float] = {}
        for other in sorted(targets):
            value = self.trust(user, other)
            if value is not None:
                result[other] = value
        return result

    def rank_count(self, user: str) -> int:
        """Number of explicit rank/rating actions ``user`` has performed."""
        return (len(self._ratees.get(user, ()))
                + len(self._friends.get(user, ()))
                + len(self._blacklists.get(user, ())))


def build_user_trust_matrix(store: UserTrustStore) -> TrustMatrix:
    """Eq. 6: the row-normalised user-based one-step matrix ``UM``.

    Blacklisted entries are zero and therefore vanish under normalisation,
    exactly as the paper intends ("they should be assigned with zero").
    """
    raw: Dict[str, Dict[str, float]] = {}
    # Sorted: raters() is a set; row insertion order feeds downstream
    # matmul accumulation order and must not depend on PYTHONHASHSEED.
    for user in sorted(store.raters()):
        for other, value in store.relationships_of(user).items():
            if value > 0.0:
                raw.setdefault(user, {})[other] = value
    matrix = normalize_rows(raw)
    check_row_stochastic(matrix, name="UM")
    return matrix


class UserTrustAccumulator:
    """Patch-based UM builder: re-derives only dirty raters' rows.

    A rater's UM row (Eq. 6) depends only on their own ratings, friend list
    and blacklist, so rows are independent: the accumulator keeps the raw
    ``UT`` rows and their ``math.fsum`` totals between refreshes and
    recomputes exactly the rows of the raters the store names dirty.  No
    normalised UM is kept: the pipeline's Eq. 7 publish divides each raw
    row by its total, and :attr:`matrix` normalises :attr:`raw` when read.
    """

    #: Key of this dimension in :meth:`TrustPipeline.dimension_matrices`.
    dimension = "user"
    #: The span :meth:`TrustPipeline.refresh` times this dimension under.
    span = "pipeline.user_trust"

    def __init__(self, store: UserTrustStore):
        self._store = store
        #: Un-normalised UT rows: a rater's positive relationships.
        self.raw: Dict[str, Dict[str, float]] = {}
        #: row -> ``math.fsum`` of its :attr:`raw` values, Eq. 6's divisor.
        self.totals: Dict[str, float] = {}

    @property
    def matrix(self) -> TrustMatrix:
        """UM (Eq. 6): :attr:`raw` row-normalised, built afresh per read."""
        matrix = normalize_rows(self.raw)
        check_row_stochastic(matrix, name="UM")
        return matrix

    def refresh(self) -> Set[str]:
        """Re-derive the rows of the store's dirty raters; returns them."""
        return self._rederive(self._store.dirty_raters())

    def rebuild(self) -> Set[str]:
        """Full pass: forget everything and re-derive every row."""
        stale_rows = set(self.raw)
        self.raw = {}
        self.totals = {}
        return self._rederive(self._store.raters()) | stale_rows

    def _rederive(self, raters: Set[str]) -> Set[str]:
        """Re-derive the rows of ``raters``; returns rows touched."""
        raw = self.raw
        for rater in sorted(raters):
            raw_row = {other: value
                       for other, value in self._store.relationships_of(
                           rater).items()
                       if value > 0.0}
            if raw_row:
                raw[rater] = raw_row
            else:
                raw.pop(rater, None)
        retotal(raw, self.totals, raters)
        return raters
