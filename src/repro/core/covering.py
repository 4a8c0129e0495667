"""Approximate subscription covering: the subscription-facing API of the paper.

This module ties together the Edelsbrunner–Overmars transform and the
ε-approximate dominance index: subscriptions (conjunctions of per-attribute
ranges) are stored as dominance points in a ``2β``-dimensional universe, and
``find_covering`` answers "is this new subscription covered by one that is
already stored?" by issuing an ε-approximate dominance query anchored at the
new subscription's point.  The points are keyed on the Z curve, the curve
the paper's search and bounds are stated for; no detector, profiler or plan
takes a curve (a curve is chosen only for the match index, through
``IndexConfig(curve=…)``).

Guarantees mirror Problem 2 of the paper:

* **Soundness** — any subscription returned really does cover the query
  (dominance in the transformed space is exactly covering, and witnesses come
  from inside the dominance region).
* **Approximate completeness** — at least a ``(1 − ε)`` volume fraction of the
  region where covering subscriptions can live is searched, so a covering
  subscription is missed only when every one of them hides in the remaining
  sliver.  Missed covers never break a publish/subscribe system; they only
  cost an extra forwarded subscription.

The profile entry point, ``find_covering_profile``, is "at least
ε-approximate": a stored set no larger than the query's probe schedule is
compared with the query directly — complete, and cheaper than probing the
schedule — and only a larger one is searched along it.  It serves the
paper-figure drivers (the recall benchmark among them); a broker link decides
covering by an exact scan of its forwarded set and does not use this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..geometry.transform import DominanceTransform, Range, first_covering
from .approx_dominance import (
    ApproximateDominanceIndex,
    DominanceQueryResult,
    DominancePlan,
    build_dominance_plan,
)

__all__ = [
    "DEFAULT_CUBE_BUDGET",
    "DEFAULT_EPSILON",
    "ApproximateCoveringDetector",
    "CoveringProfile",
    "CoveringProfiler",
    "CoveringResult",
]

#: Approximation slack ε of a covering detector built without one (Sec. 4).
DEFAULT_EPSILON = 0.05

#: ε-cube budget of a covering detector built without one; the paper-figure
#: drivers state their larger offline budgets.
DEFAULT_CUBE_BUDGET = 2_000


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


@dataclass(frozen=True)
class CoveringProfile:
    """The per-subscription half of a covering check, computed once.

    A covering query for a subscription runs the same geometry no matter
    which detector answers it: validate the ranges, transform them to a
    dominance point, decompose the point's dominance region into a probe
    schedule.  A profile captures all three so that every detector it is
    handed to shares one computation; its plan records the universe, ε and
    cube budget it was built under.  The plan's level classes are still
    built only when an execution reaches them (:class:`DominancePlan`).
    """

    ranges: Tuple[Range, ...]
    point: Tuple[int, ...]
    plan: DominancePlan = field(repr=False)


class CoveringProfiler:
    """Builds :class:`CoveringProfile` objects compatible with a detector's parameters.

    It takes the parameters the :class:`ApproximateCoveringDetector`
    objects it serves were built with (attribute count/order, ε, cube
    budget), so its profiles can be handed to any of them.
    """

    def __init__(
        self,
        attributes: int,
        attribute_order: int,
        epsilon: float = DEFAULT_EPSILON,
        cube_budget: int = DEFAULT_CUBE_BUDGET,
    ) -> None:
        self.attributes = attributes
        self.attribute_order = attribute_order
        self.epsilon = epsilon
        self.cube_budget = cube_budget
        self.transform = DominanceTransform(attributes, attribute_order)

    def profile(self, ranges: Sequence[Range]) -> CoveringProfile:
        """Validate ``ranges`` and build their dominance point and probe schedule."""
        validated = self.transform.validate_ranges(ranges)
        point = self.transform.to_point(validated)
        plan = build_dominance_plan(
            self.transform.universe,
            point,
            epsilon=self.epsilon,
            cube_budget=self.cube_budget,
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
    epsilon:
        The default approximation parameter ε of a query (0 = exhaustive
        search); :data:`DEFAULT_EPSILON` unless given.
    cube_budget:
        The per-query cap on examined standard cubes;
        :data:`DEFAULT_CUBE_BUDGET` unless given.

    Every stored subscription is kept twice: its ranges, in storage order,
    and its dominance point in :attr:`index`, the ε-search's index, keyed on
    the Z curve the paper analyses.
    """

    attributes: int
    attribute_order: int
    epsilon: float = DEFAULT_EPSILON
    cube_budget: int = DEFAULT_CUBE_BUDGET
    transform: DominanceTransform = field(init=False)
    index: ApproximateDominanceIndex = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._profiler = CoveringProfiler(
            self.attributes, self.attribute_order, self.epsilon, self.cube_budget
        )
        self.transform = self._profiler.transform
        self._subscriptions: Dict[Hashable, Tuple[Range, ...]] = {}
        self.index = ApproximateDominanceIndex(
            universe=self.transform.universe,
            epsilon=self.epsilon,
            cube_budget=self.cube_budget,
        )

    # ---------------------------------------------------------------- updates
    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: Hashable) -> bool:
        return sub_id in self._subscriptions

    def add_subscription(self, sub_id: Hashable, ranges: Sequence[Range]) -> None:
        """Store a subscription under ``sub_id`` (replacing any previous one)."""
        validated = self.transform.validate_ranges(ranges)
        # A replaced id moves to the end, as the index moves it to the end of
        # its key bucket.
        self._subscriptions.pop(sub_id, None)
        self._subscriptions[sub_id] = validated
        self.index.insert(sub_id, self.transform.to_point(validated))

    def remove_subscription(self, sub_id: Hashable) -> bool:
        """Remove a subscription; return True when it was present."""
        if self._subscriptions.pop(sub_id, None) is None:
            return False
        self.index.remove(sub_id)
        return True

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

    # ---------------------------------------------------------------- profiles
    def compatible_profile(self, profile: CoveringProfile) -> bool:
        """True when ``profile`` was built with this detector's parameters.

        Every answer-affecting parameter must match, and the plan records
        each: its universe (attribute count and order), ε and the cube budget
        (a plan bakes its key ranges and budget cut-off in at build time).
        """
        plan = profile.plan
        return (plan.universe, plan.epsilon, plan.cube_budget) == (
            self.transform.universe,
            self.epsilon,
            self.cube_budget,
        )

    def profile(self, ranges: Sequence[Range]) -> CoveringProfile:
        """Validate ``ranges`` and profile them for this detector."""
        return self._profiler.profile(ranges)

    def find_covering_profile(self, profile: CoveringProfile) -> CoveringResult:
        """A covering check through a profile: compare or probe, whichever is cheaper.

        The profile's plan knows from the census how many cubes its schedule
        takes.  A detector holding no more subscriptions than that compares
        each stored subscription's ranges with the profile's — first cover in
        insertion order (a replaced id counts as newly inserted), what a
        broker link's scan returns; no plan class is materialised, and the
        answer is complete where the ε-search is bound by its budget.  A
        fuller detector executes the plan against :attr:`index`, as
        :meth:`find_covering` at the default ε would (same plan, here not
        rebuilt).  Sound on both sides: a cover is reported only
        after its ranges were compared or its point found inside the
        dominance region.  A profile built under different parameters is
        answered from its ranges under this detector's own.  The recall
        benchmark measures it; no broker calls it.
        """
        if not self.compatible_profile(profile):
            return self.find_covering(profile.ranges)
        stored = len(self._subscriptions)
        if stored <= profile.plan.cubes:
            covering_id, compared = first_covering(self._subscriptions.items(), profile.ranges)
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
