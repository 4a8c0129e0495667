"""Approximate subscription covering: the subscription-facing API of the paper.

This module ties together the Edelsbrunner–Overmars transform and the
ε-approximate dominance index: subscriptions (conjunctions of per-attribute
ranges) are stored as dominance points in a ``2β``-dimensional universe, and
``find_covering`` answers "is this new subscription covered by one that is
already stored?" by issuing an ε-approximate dominance query anchored at the
new subscription's point.

Guarantees mirror Problem 2 of the paper:

* **Soundness** — any subscription returned really does cover the query
  (dominance in the transformed space is exactly covering, and witnesses come
  from inside the dominance region).
* **Approximate completeness** — at least a ``(1 − ε)`` volume fraction of the
  region where covering subscriptions can live is searched, so a covering
  subscription is missed only when every one of them hides in the remaining
  sliver.  Missed covers never break a publish/subscribe system; they only
  cost an extra forwarded subscription.

The routing entry point, ``find_covering_profile``, is "at least
ε-approximate": a stored set smaller than the query's probe schedule is
compared with the query directly — complete, and cheaper than building the
schedule — and only a larger one is searched along it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..geometry.transform import DominanceTransform, Range, first_covering
from ..index.backends import ordered_map_backend_name
from ..index.config import IndexConfig
from ..sfc.factory import make_curve
from .approx_dominance import (
    ApproximateDominanceIndex,
    DominanceQueryResult,
    DominancePlan,
    build_dominance_plan,
)

__all__ = [
    "OFFLINE_CONFIG",
    "ApproximateCoveringDetector",
    "CoveringProfile",
    "CoveringProfiler",
    "CoveringResult",
]

#: Configuration of a detector or profiler built without one (the paper-figure
#: experiments): the ε-cube budget is far larger than the routing default
#: because an offline query runs once, not once per covering probe on the
#: forwarding path.
OFFLINE_CONFIG = IndexConfig(cube_budget=1_000_000)


@dataclass
class CoveringResult:
    """Outcome of a covering query.

    Attributes
    ----------
    covering_id:
        Identifier of a stored subscription that covers the query, or ``None``
        when the search found none.
    query:
        The dominance-query accounting behind this covering check; ``None``
        when the stored subscriptions were compared directly and no dominance
        query ran (:meth:`ApproximateCoveringDetector.find_covering_profile`).
    comparisons:
        Stored subscriptions compared with the query directly (0 when the
        plan was executed).
    """

    covering_id: Optional[Hashable]
    query: Optional[DominanceQueryResult]
    comparisons: int = 0

    @property
    def covered(self) -> bool:
        """True when a covering subscription was found."""
        return self.covering_id is not None

    @property
    def work_units(self) -> int:
        """Runs probed plus subscriptions compared: what this check cost."""
        return self.comparisons + (self.query.runs_probed if self.query is not None else 0)


@dataclass(frozen=True)
class CoveringProfile:
    """The per-subscription half of a covering check, computed once.

    A covering query for a subscription runs the same geometry no matter
    which link's detector answers it: validate the ranges, transform them to
    a dominance point, decompose the point's dominance region into a probe
    schedule.  A profile captures all three so that every neighbour strategy
    — and every later promotion re-check — shares one computation.
    """

    ranges: Tuple[Range, ...]
    point: Tuple[int, ...]
    plan: DominancePlan


class CoveringProfiler:
    """Builds :class:`CoveringProfile` objects compatible with a detector config.

    One profiler per broker: it mirrors the parameters every per-link
    :class:`ApproximateCoveringDetector` of that broker was built with
    (attribute count/order, ε, cube budget, curve), so its profiles can be
    handed to any of them.
    """

    def __init__(
        self,
        attributes: int,
        attribute_order: int,
        config: Optional[IndexConfig] = None,
    ) -> None:
        self.config = config = config or OFFLINE_CONFIG
        self.attributes = attributes
        self.attribute_order = attribute_order
        self.transform = DominanceTransform(attributes, attribute_order)
        self._curve = make_curve(config.curve, self.transform.universe)

    @property
    def cache_key(self) -> Tuple:
        """Everything that affects the profiles this profiler builds.

        Two profilers with equal cache keys produce interchangeable profiles;
        :class:`~repro.pubsub.subscription_store.ProfileCache` namespaces its
        entries by this key so that (in particular) the same subscription
        profiled under two different curves never shares a cached plan.  The
        plan-shaping knobs come from the config's covering key, so profilers
        built from configs differing only in storage knobs (backend, run
        budget, shards) share a namespace — their profiles are identical.
        """
        return (
            self.config.covering_key(),
            self.attributes,
            self.attribute_order,
        )

    def profile(self, ranges: Sequence[Range]) -> CoveringProfile:
        """Validate ``ranges`` and build their point + probe schedule."""
        validated = self.transform.validate_ranges(ranges)
        point = self.transform.to_point(validated)
        plan = build_dominance_plan(
            self.transform.universe,
            point,
            epsilon=self.config.epsilon,
            cube_budget=self.config.cube_budget,
            curve=self._curve,
        )
        return CoveringProfile(ranges=validated, point=point, plan=plan)


@dataclass
class ApproximateCoveringDetector:
    """Detects covering relationships among range subscriptions, approximately.

    Parameters
    ----------
    attributes:
        Number of numeric attributes β in every subscription.
    attribute_order:
        Bits per attribute; attribute values lie in ``[0, 2^k − 1]``.
    config:
        The :class:`~repro.index.config.IndexConfig` supplying the default
        approximation parameter ε (0 = exhaustive search), the per-query cap
        on examined standard cubes, the curve keying the dominance index (any
        recursive-partitioning curve gives the same answers, only the probe
        key ranges differ) and the SFC-array backend.  Defaults to
        :data:`OFFLINE_CONFIG`.
    """

    attributes: int
    attribute_order: int
    seed: Optional[int] = None
    config: Optional[IndexConfig] = None
    transform: DominanceTransform = field(init=False)
    index: ApproximateDominanceIndex = field(init=False)

    def __post_init__(self) -> None:
        self.config = config = self.config or OFFLINE_CONFIG
        self.transform = DominanceTransform(self.attributes, self.attribute_order)
        self.index = ApproximateDominanceIndex(
            universe=self.transform.universe,
            epsilon=config.epsilon,
            curve=make_curve(config.curve, self.transform.universe),
            # The dominance index needs an ordered map; the composite
            # "sharded" matching backend maps to the flat store its shards
            # are built on.
            backend=ordered_map_backend_name(config.backend),
            cube_budget=config.cube_budget,
            seed=self.seed,
        )
        self._subscriptions: Dict[Hashable, Tuple[Range, ...]] = {}

    # ---------------------------------------------------------------- updates
    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: Hashable) -> bool:
        return sub_id in self._subscriptions

    def add_subscription(self, sub_id: Hashable, ranges: Sequence[Range]) -> None:
        """Store a subscription under ``sub_id`` (replacing any previous one)."""
        validated = self.transform.validate_ranges(ranges)
        self._subscriptions[sub_id] = validated
        self.index.insert(sub_id, self.transform.to_point(validated))

    def remove_subscription(self, sub_id: Hashable) -> bool:
        """Remove a subscription; return True when it was present."""
        if sub_id not in self._subscriptions:
            return False
        del self._subscriptions[sub_id]
        self.index.remove(sub_id)
        return True

    def subscription(self, sub_id: Hashable) -> Optional[Tuple[Range, ...]]:
        """Return the stored ranges of ``sub_id``, or ``None``."""
        return self._subscriptions.get(sub_id)

    def subscriptions(self) -> Dict[Hashable, Tuple[Range, ...]]:
        """Return a copy of all stored subscriptions."""
        return dict(self._subscriptions)

    # ---------------------------------------------------------------- queries
    def find_covering(
        self,
        ranges: Sequence[Range],
        epsilon: Optional[float] = None,
        exclude: Optional[Hashable] = None,
    ) -> CoveringResult:
        """Search for a stored subscription covering ``ranges``.

        ``exclude`` allows a router to ask "is this subscription covered by a
        *different* one?" when the query subscription itself is already
        stored; the excluded entry is temporarily removed from the index for
        the duration of the query.
        """
        point = self.transform.to_point(ranges)
        removed_point = None
        if exclude is not None and exclude in self._subscriptions:
            removed_point = self.transform.to_point(self._subscriptions[exclude])
            self.index.remove(exclude)
        try:
            result = self.index.query(point, epsilon=epsilon)
        finally:
            if removed_point is not None:
                self.index.insert(exclude, removed_point)
        covering_id = result.item.item_id if result.item is not None else None
        return CoveringResult(covering_id=covering_id, query=result)

    def is_covered(self, ranges: Sequence[Range], epsilon: Optional[float] = None) -> bool:
        """Return True when the approximate search finds a covering subscription."""
        return self.find_covering(ranges, epsilon=epsilon).covered

    # ---------------------------------------------------------------- profiles
    def compatible_profile(self, profile: CoveringProfile) -> bool:
        """True when ``profile`` was built with this detector's parameters.

        All four answer-affecting parameters must match — universe, curve, ε
        and the cube budget (the plan bakes its key ranges and budget cut-off
        in at build time; ranges from a different curve do not apply).
        """
        assert self.index.curve is not None
        return (
            profile.plan.universe == self.transform.universe
            and profile.plan.curve_kind == self.index.curve.kind
            and profile.plan.epsilon == self.config.epsilon
            and profile.plan.cube_budget == self.config.cube_budget
        )

    def add_subscription_profile(self, sub_id: Hashable, profile: CoveringProfile) -> None:
        """Store a subscription from its precomputed profile (no re-validation)."""
        self._subscriptions[sub_id] = profile.ranges
        self.index.insert(sub_id, profile.point)

    def profile(self, ranges: Sequence[Range]) -> CoveringProfile:
        """Validate ``ranges`` and build their point + probe schedule for this detector."""
        validated = self.transform.validate_ranges(ranges)
        point = self.transform.to_point(validated)
        return CoveringProfile(ranges=validated, point=point, plan=self.index.plan(point))

    def find_covering_profile(self, profile: CoveringProfile) -> CoveringResult:
        """The routing covering check: a join that picks its side before building anything.

        The profile's plan knows from the census how many cubes its schedule
        takes.  A detector holding no more subscriptions than that compares
        each stored subscription's ranges with the profile's — first cover in
        insertion order, the choice of the ``exact`` strategy; no plan class
        is materialised, no key computed, and the answer is complete where
        the ε-search is bound by its budget.  A fuller detector executes the
        plan, as :meth:`find_covering` at the default ε would (same plan,
        here not rebuilt).  Sound on both sides: a cover is reported only
        after its ranges were compared or its point found inside the
        dominance region.  A profile built under different parameters
        (paranoia guard; brokers share one config) is answered from its
        ranges under this detector's own.
        """
        if not self.compatible_profile(profile):
            return self.find_covering(profile.ranges)
        if len(self._subscriptions) <= profile.plan.cubes:
            covering_id, compared = first_covering(self._subscriptions, profile.ranges)
            return CoveringResult(covering_id=covering_id, query=None, comparisons=compared)
        result = self.index.execute_plan(profile.plan)
        covering_id = result.item.item_id if result.item is not None else None
        return CoveringResult(covering_id=covering_id, query=result)

    def find_covering_exhaustive(
        self, ranges: Sequence[Range], exclude: Optional[Hashable] = None
    ) -> CoveringResult:
        """Exhaustive (ε = 0) covering search through the same SFC machinery."""
        return self.find_covering(ranges, epsilon=0.0, exclude=exclude)

    # ----------------------------------------------------------- ground truth
    def all_covering(self, ranges: Sequence[Range]) -> List[Hashable]:
        """Return every stored subscription covering ``ranges`` (linear scan oracle).

        Used to measure the recall of the approximate search; not part of the
        performance-critical path.
        """
        query = self.transform.validate_ranges(ranges)
        return [
            sub_id
            for sub_id, stored in self._subscriptions.items()
            if self.transform.covers(stored, query)
        ]

    def verify_witness(self, result: CoveringResult, ranges: Sequence[Range]) -> bool:
        """Check that a returned witness really covers ``ranges`` (soundness check)."""
        if result.covering_id is None:
            return True
        stored = self._subscriptions.get(result.covering_id)
        if stored is None:
            return False
        return self.transform.covers(stored, ranges)
