"""Per-broker subscription profiles, and the match-run memo every broker shares.

Storing a subscription for event matching runs one piece of pure geometry at
every broker it reaches: the rectangle's decomposition into Z key runs
(Fact 2.1).  This module hoists it out, and keeps the per-broker record of
what a broker holds:

* :class:`ProfileCache` — memoises the match index's key runs by snapped
  rectangle with LRU eviction.  A single cache can be shared by every broker
  of a network: a subscription propagating along a path of ``h`` brokers then
  costs **one** match-run decomposition instead of ``h``.
* :class:`SubscriptionProfile` — one subscription and its quantised ranges.
* :class:`SubscriptionStore` — the per-broker view: reference-counted
  profiles keyed by subscription id, following the routing table's contents
  (acquired when a subscription is stored, released when it is removed, wiped
  on crash recovery).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from ..sfc.base import KeyRange
from .subscription import Subscription

__all__ = ["ProfileCache", "SubscriptionProfile", "SubscriptionStore"]

#: What the match index stores per snapped rectangle: its (coarsened) key
#: runs and whether the run budget forced the coarsening.
MatchRuns = Tuple[Tuple[KeyRange, ...], bool]


@dataclass(frozen=True)
class SubscriptionProfile:
    """One subscription a broker holds, with its quantised ranges."""

    subscription: Subscription
    ranges: Tuple[Tuple[int, int], ...]


class ProfileCache:
    """The match index's key runs, memoised by snapped rectangle (LRU-bounded).

    The caller builds the key from everything the runs depend on — universe,
    precision, run budget and the snapped rectangle — so
    indexes built on one cache under configs that differ in any of them
    never read each other's runs, and the cache is safely shareable across
    brokers.  :attr:`hits` / :attr:`misses` / :attr:`evictions` count its
    lookups and drops.
    """

    #: Cap on distinct rectangles memoised.
    MAX_ENTRIES = 100_000

    def __init__(self) -> None:
        self._runs: "OrderedDict[Tuple, MatchRuns]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._runs)

    def match_runs(self, key: Tuple) -> Optional[MatchRuns]:
        """Return the memoised match runs stored under ``key``, or ``None``.

        A miss is counted here; the caller computes the runs and hands them
        to :meth:`store_match_runs` (two steps so a bulk load can key the
        cubes of all its misses in one vectorised pass).
        """
        cached = self._runs.get(key)
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        self._runs.move_to_end(key)
        return cached

    def store_match_runs(self, key: Tuple, entry: MatchRuns) -> None:
        """Memoise freshly computed match runs (immutable; shared by identity)."""
        self._runs[key] = entry
        if len(self._runs) > self.MAX_ENTRIES:
            self._runs.popitem(last=False)
            self.evictions += 1


class SubscriptionStore:
    """Reference-counted per-broker profile registry.

    Mirrors the broker's routing table: each interface that stores a
    subscription acquires its profile; each removal releases it.  The store
    tracks which ids this broker currently holds.
    """

    def __init__(self) -> None:
        self._profiles: Dict[Hashable, SubscriptionProfile] = {}
        self._refcounts: Dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, sub_id: Hashable) -> bool:
        return sub_id in self._profiles

    def acquire(self, subscription: Subscription) -> SubscriptionProfile:
        """Register one more holder of ``subscription``'s profile and return it."""
        sub_id = subscription.sub_id
        profile = self._profiles.get(sub_id)
        if profile is None:
            profile = SubscriptionProfile(subscription, subscription.ranges)
            self._profiles[sub_id] = profile
            self._refcounts[sub_id] = 1
        else:
            self._refcounts[sub_id] += 1
        return profile

    def release(self, sub_id: Hashable) -> bool:
        """Drop one holder; forget the profile when the last one is gone.

        Returns True when the id was known (unknown ids are a no-op so that
        duplicate or premature unsubscriptions stay harmless).
        """
        count = self._refcounts.get(sub_id)
        if count is None:
            return False
        if count <= 1:
            del self._refcounts[sub_id]
            del self._profiles[sub_id]
        else:
            self._refcounts[sub_id] = count - 1
        return True

    def clear(self) -> None:
        """Forget every held profile (crash recovery wipes learnt state)."""
        self._profiles.clear()
        self._refcounts.clear()
