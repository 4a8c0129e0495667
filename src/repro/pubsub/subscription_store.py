"""Per-broker subscription profiles: compute a subscription's geometry once, share everywhere.

Every subscription that arrives at a broker is considered for forwarding on
each of its other links, and every such covering check runs the same geometry:
validate the quantised ranges, transform them into a dominance point, and
decompose that point's dominance region into a Z-order probe schedule.
Re-deriving it per link — and again on every withdrawal re-check — would
multiply that work by the broker's degree.  Storing the subscription for
event matching runs a second piece of pure geometry at every broker it
reaches: the rectangle's decomposition into curve key runs (Fact 2.1).  This
module hoists both shared halves out:

* :class:`SubscriptionProfile` — one subscription's validated ranges plus (for
  approximate covering) its :class:`~repro.core.covering.CoveringProfile`
  (a census-free bound on its plan's size; dominance point and probe plan
  built on first read).
* :class:`ProfileCache` — builds profiles and memoises them by quantised
  ranges with LRU eviction, and memoises the match index's key runs by
  snapped rectangle the same way.  A single cache can be shared by every
  broker of a network: a subscription propagating along a path of ``h``
  brokers then costs **one** covering decomposition instead of ``h × degree``
  of them, and **one** match-run decomposition instead of ``h``.
* :class:`SubscriptionStore` — the per-broker view: reference-counted
  profiles keyed by subscription id, following the routing table's contents
  (acquired when a subscription is stored, released when it is removed, wiped
  on crash recovery).

Profiles are an optimisation, never a semantic change: a check through a
shared covering profile gives the answer a link gets by profiling the plain
ranges itself (pinned by ``test_shared_profile_replays_own_profile``), so
forwarding decisions are those of per-check recomputation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from ..core.covering import CoveringProfile, CoveringProfiler
from ..sfc.base import KeyRange
from .subscription import Subscription

__all__ = ["ProfileCache", "SubscriptionProfile", "SubscriptionStore"]

#: Default cap on distinct range vectors a :class:`ProfileCache` memoises
#: (covering profiles and match runs are each bounded by it).
DEFAULT_CACHE_ENTRIES = 100_000

#: What the match index stores per snapped rectangle: its (coarsened) key
#: runs and whether the run budget forced the coarsening.
MatchRuns = Tuple[Tuple[KeyRange, ...], bool]


@dataclass(frozen=True)
class SubscriptionProfile:
    """Everything the forwarding path needs to know about one subscription.

    ``covering`` is ``None`` when the broker's covering strategy has no
    shareable precomputation (``none`` / ``exact``); strategies then read
    the plain ``ranges``.
    """

    subscription: Subscription
    ranges: Tuple[Tuple[int, int], ...]
    covering: Optional[CoveringProfile]


class ProfileCache:
    """Builds covering profiles, memoised by quantised ranges (LRU-bounded).

    Keying by ranges rather than subscription id makes the cache safely
    shareable across brokers and resilient to id reuse: two subscriptions
    with identical rectangles share one plan.  A cache profiles under its
    one :attr:`profiler` (curve kind, ε and cube budget), so the ranges alone
    key its profiles; a network builds one cache under its one config.

    Memory: a cached profile is dominated by its plan, ~96 bytes per probe
    range once a check has materialised it — 75–192 KB per plan at the
    default ``cube_budget`` of 2,000 over a 6-dimensional dominance universe
    (measured).  Until a check meets a link holding more subscriptions than
    the profile's ``cubes_floor``, a profile is its ranges and that one int,
    ~350 bytes (3 attributes, measured); such a check adds the point and the
    census, ~2.4 KB, and only a link holding more subscriptions than the plan
    has cubes materialises its tables.  The worst case of ``max_entries`` ×
    192 KB (19 GB at the default 100,000) therefore holds only for networks
    whose links exceed the crossover: size ``max_entries`` to the distinct
    rectangles in flight there.

    The cache also holds the match index's key runs (:meth:`match_runs` /
    :meth:`store_match_runs`).  The caller builds the key from everything the
    runs depend on — curve kind, universe, precision, run budget and the
    snapped rectangle — so indexes built on one cache under configs that
    differ in any of them never read each other's runs.  Run entries have their own LRU
    order and their own ``run_*`` counters; ``hits`` / ``misses`` /
    ``evictions`` keep counting covering profiles only.
    """

    def __init__(
        self,
        profiler: Optional[CoveringProfiler] = None,
        max_entries: int = DEFAULT_CACHE_ENTRIES,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be at least 1, got {max_entries}")
        self.profiler = profiler
        self.max_entries = max_entries
        self._profiles: "OrderedDict[Tuple, CoveringProfile]" = OrderedDict()
        self._runs: "OrderedDict[Tuple, MatchRuns]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.run_hits = 0
        self.run_misses = 0
        self.run_evictions = 0

    def __len__(self) -> int:
        return len(self._profiles)

    def covering_profile(
        self, ranges: Tuple[Tuple[int, int], ...]
    ) -> Optional[CoveringProfile]:
        """Return the (cached) covering profile for ``ranges``, or ``None`` without a profiler."""
        if self.profiler is None:
            return None
        cached = self._profiles.get(ranges)
        if cached is not None:
            self.hits += 1
            self._profiles.move_to_end(ranges)
            return cached
        self.misses += 1
        profile = self.profiler.profile(ranges)
        self._profiles[ranges] = profile
        if len(self._profiles) > self.max_entries:
            self._profiles.popitem(last=False)
            self.evictions += 1
        return profile

    def match_runs(self, key: Tuple) -> Optional[MatchRuns]:
        """Return the memoised match runs stored under ``key``, or ``None``.

        A miss is counted here; the caller computes the runs and hands them
        to :meth:`store_match_runs` (two steps so a bulk load can key the
        cubes of all its misses in one vectorised pass).
        """
        cached = self._runs.get(key)
        if cached is None:
            self.run_misses += 1
            return None
        self.run_hits += 1
        self._runs.move_to_end(key)
        return cached

    def store_match_runs(self, key: Tuple, entry: MatchRuns) -> None:
        """Memoise freshly computed match runs (immutable; shared by identity)."""
        self._runs[key] = entry
        if len(self._runs) > self.max_entries:
            self._runs.popitem(last=False)
            self.run_evictions += 1

    def profile(self, subscription: Subscription) -> SubscriptionProfile:
        """Build the full per-subscription profile (covering half memoised)."""
        return SubscriptionProfile(
            subscription=subscription,
            ranges=subscription.ranges,
            covering=self.covering_profile(subscription.ranges),
        )


class SubscriptionStore:
    """Reference-counted per-broker profile registry.

    Mirrors the broker's routing table: each interface that stores a
    subscription acquires its profile; each removal releases it.  The profile
    object itself may be shared with other brokers through the cache — the
    store only tracks which ids this broker currently needs.
    """

    def __init__(self, cache: ProfileCache) -> None:
        self.cache = cache
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
            profile = self.cache.profile(subscription)
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

    def get(self, sub_id: Hashable) -> Optional[SubscriptionProfile]:
        """Profile of a currently held subscription, or ``None``."""
        return self._profiles.get(sub_id)

    def clear(self) -> None:
        """Forget every held profile (crash recovery wipes learnt state)."""
        self._profiles.clear()
        self._refcounts.clear()
