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
schedule — and only a larger one is searched along it.  A profile carries a
lower bound on the schedule's size that needs no census
(:attr:`CoveringProfile.cubes_floor`), so a link holding no more
subscriptions than that is compared without the schedule's size being counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..geometry.transform import DominanceTransform, Range, first_covering
from ..index.config import IndexConfig
from ..sfc.factory import make_curve
from .approx_dominance import (
    ApproximateDominanceIndex,
    DominanceQueryResult,
    DominancePlan,
    build_dominance_plan,
    plan_cubes_floor,
)

__all__ = [
    "ApproximateCoveringDetector",
    "CoveringProfile",
    "CoveringProfiler",
    "CoveringResult",
]

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

    It is built as its validated ranges plus :attr:`cubes_floor`, a lower
    bound on the schedule's size read off the dominance region's sides.  The
    :attr:`point` and the :attr:`plan` (census included) are built the first
    time they are read, under the profiler's curve, ε and cube budget, and
    kept: every link that reads them shares one plan.  A link holding no more
    subscriptions than the floor is compared without reading either.
    """

    ranges: Tuple[Range, ...]
    #: A lower bound on ``plan.cubes`` known without the census
    #: (:func:`~repro.core.approx_dominance.plan_cubes_floor`).
    cubes_floor: int
    profiler: "CoveringProfiler" = field(repr=False)

    @cached_property
    def point(self) -> Tuple[int, ...]:
        """The dominance point of :attr:`ranges`, computed on first read."""
        return self.profiler.transform.to_point(self.ranges)

    @cached_property
    def plan(self) -> DominancePlan:
        """The probe schedule of :attr:`point`, its census run on first read."""
        return self.profiler.plan(self.point)


class CoveringProfiler:
    """Builds :class:`CoveringProfile` objects compatible with a detector config.

    One profiler per broker: it mirrors the parameters every per-link
    :class:`ApproximateCoveringDetector` of that broker was built with
    (attribute count/order, ε, cube budget, curve), so its profiles can be
    handed to any of them.  :attr:`plans_built` counts the plans its profiles
    have built, each the first time one was read.
    """

    def __init__(
        self,
        attributes: int,
        attribute_order: int,
        config: Optional[IndexConfig] = None,
    ) -> None:
        self.config = config = config or IndexConfig()
        self.attributes = attributes
        self.attribute_order = attribute_order
        self.transform = DominanceTransform(attributes, attribute_order)
        self.curve = make_curve(config.curve, self.transform.universe)
        self.plans_built = 0
        self._cache_key = (config.covering_key(), attributes, attribute_order)

    @property
    def cache_key(self) -> Tuple:
        """Everything that affects the profiles this profiler builds.

        Two profilers with equal cache keys produce interchangeable profiles;
        :meth:`ApproximateCoveringDetector.compatible_profile` compares them
        so that (in particular) a profile built under another curve is never
        executed against this one's index.  The plan-shaping knobs come from
        the config's covering key, so profilers built from configs differing
        only in storage knobs (backend, run budget, shards) share a key —
        their profiles are identical.
        """
        return self._cache_key

    def profile(self, ranges: Sequence[Range]) -> CoveringProfile:
        """Validate ``ranges`` and bound their probe schedule's size from below.

        The dominance region of ``([ℓ_1, r_1], ...)`` has sides ``ℓ_i + 1``
        and ``M − r_i + 1``; :func:`~repro.core.approx_dominance.plan_cubes_floor`
        turns them into :attr:`CoveringProfile.cubes_floor`.  No point, census
        or plan is built here (see :class:`CoveringProfile`).
        """
        validated = self.transform.validate_ranges(ranges)
        top = self.transform.max_value
        lengths = [side for lo, hi in validated for side in (lo + 1, top - hi + 1)]
        config = self.config
        floor = plan_cubes_floor(lengths, epsilon=config.epsilon, cube_budget=config.cube_budget)
        return CoveringProfile(ranges=validated, cubes_floor=floor, profiler=self)

    def plan(self, point: Tuple[int, ...]) -> DominancePlan:
        """Build the probe schedule of ``point`` under this profiler's parameters."""
        self.plans_built += 1
        return build_dominance_plan(
            self.transform.universe,
            point,
            epsilon=self.config.epsilon,
            cube_budget=self.config.cube_budget,
            curve=self.curve,
        )


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
        key ranges differ).  Defaults to ``IndexConfig()``, the routing default.

    The dominance index behind the ε-search (:attr:`index`) is built the
    first time something reads it and kept up from then on.  Until then a
    store or a withdrawal touches only the stored ranges: a routing link that
    never outgrows its plans, and so only ever compares, keys nothing.
    """

    attributes: int
    attribute_order: int
    config: Optional[IndexConfig] = None
    transform: DominanceTransform = field(init=False)

    def __post_init__(self) -> None:
        self._profiler = CoveringProfiler(self.attributes, self.attribute_order, self.config)
        self.config = self._profiler.config
        self.transform = self._profiler.transform
        self._subscriptions: Dict[Hashable, Tuple[Range, ...]] = {}
        self._index: Optional[ApproximateDominanceIndex] = None

    @property
    def index(self) -> ApproximateDominanceIndex:
        """The dominance index over the stored points, built on first read.

        The build inserts every stored subscription in storage order, which
        is the order an index kept up from the start received them, so both
        report the same witnesses.
        """
        index = self._index
        if index is None:
            config = self.config
            index = ApproximateDominanceIndex(
                universe=self.transform.universe,
                epsilon=config.epsilon,
                curve=self._profiler.curve,
                cube_budget=config.cube_budget,
            )
            to_point = self.transform.to_point
            for sub_id, ranges in self._subscriptions.items():
                index.insert(sub_id, to_point(ranges))
            self._index = index
        return index

    # ---------------------------------------------------------------- updates
    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: Hashable) -> bool:
        return sub_id in self._subscriptions

    def add_subscription(self, sub_id: Hashable, ranges: Sequence[Range]) -> None:
        """Store a subscription under ``sub_id`` (replacing any previous one)."""
        validated = self.transform.validate_ranges(ranges)
        self._store(sub_id, validated)
        if self._index is not None:
            self._index.insert(sub_id, self.transform.to_point(validated))

    def _store(self, sub_id: Hashable, ranges: Tuple[Range, ...]) -> None:
        # A replaced id moves to the end, as the index moves it to the end of
        # its key bucket: an index built later from this order is the same.
        subscriptions = self._subscriptions
        subscriptions.pop(sub_id, None)
        subscriptions[sub_id] = ranges

    def remove_subscription(self, sub_id: Hashable) -> bool:
        """Remove a subscription; return True when it was present."""
        if self._subscriptions.pop(sub_id, None) is None:
            return False
        if self._index is not None:
            self._index.remove(sub_id)
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
        stored; the search skips the excluded entry and leaves the index as
        it was.
        """
        result = self.index.query(self.transform.to_point(ranges), epsilon, exclude)
        covering_id = result.item.item_id if result.item is not None else None
        return CoveringResult(covering_id=covering_id, query=result)

    def is_covered(self, ranges: Sequence[Range], epsilon: Optional[float] = None) -> bool:
        """Return True when the approximate search finds a covering subscription."""
        return self.find_covering(ranges, epsilon=epsilon).covered

    # ---------------------------------------------------------------- profiles
    def compatible_profile(self, profile: CoveringProfile) -> bool:
        """True when ``profile`` was built with this detector's parameters.

        Every answer-affecting parameter must match — attribute count and
        order (the universe), curve, ε and the cube budget (a plan bakes its
        key ranges and budget cut-off in at build time; ranges from a
        different curve do not apply): the profilers' cache keys are equal.
        The profile's plan is not read.
        """
        return profile.profiler.cache_key == self._profiler.cache_key

    def add_subscription_profile(self, sub_id: Hashable, profile: CoveringProfile) -> None:
        """Store a subscription from its precomputed profile (no re-validation)."""
        self._store(sub_id, profile.ranges)
        if self._index is not None:
            self._index.insert(sub_id, profile.point)

    def profile(self, ranges: Sequence[Range]) -> CoveringProfile:
        """Validate ``ranges`` and profile them for this detector (plan built on first read)."""
        return self._profiler.profile(ranges)

    def find_covering_profile(self, profile: CoveringProfile) -> CoveringResult:
        """The routing covering check: a join that picks its side before building anything.

        The profile's plan knows from the census how many cubes its schedule
        takes.  A detector holding no more subscriptions than that compares
        each stored subscription's ranges with the profile's — first cover in
        insertion order (a replaced id counts as newly inserted), the choice
        of the ``exact`` strategy; no plan class is materialised, no key
        computed, no index built, and the answer is complete where the
        ε-search is bound by its budget.  The census is run only for a
        detector holding more than the profile's :attr:`~CoveringProfile.cubes_floor`,
        a bound on the plan's size known without it.  A fuller
        detector executes the plan, as :meth:`find_covering` at the default ε
        would (same plan, here not rebuilt), against :attr:`index`, built
        by the first such check.  Sound on both sides: a cover is reported only
        after its ranges were compared or its point found inside the
        dominance region.  A profile built under different parameters
        (paranoia guard; brokers share one config) is answered from its
        ranges under this detector's own.
        """
        if not self.compatible_profile(profile):
            return self.find_covering(profile.ranges)
        stored = len(self._subscriptions)
        if stored <= profile.cubes_floor or stored <= profile.plan.cubes:
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
