"""ε-approximate point dominance over the Z-order curve (the paper's core index).

Given a set of points in a ``d``-dimensional universe and a query point ``x``,
an *exhaustive* dominance query asks for any stored point in the extremal
rectangle ``[x_1, max] × ... × [x_d, max]``.  An *ε-approximate* query
(Problem 2 of the paper) is allowed to search only a subset of that region
whose volume is at least ``(1 − ε)`` of the whole; it may therefore miss a
dominating point that hides in the unsearched sliver, but it can never return
a point that does not dominate the query.

Algorithm (Section 5 of the paper):

1. Form the query's extremal rectangle ``R(ℓ)``.
2. Greedily partition it into a minimum number of standard cubes; the cubes
   come in classes ``D_i`` of side ``2^i`` (Lemma 3.4) and every cube is a
   single contiguous run of Z-order keys (Fact 2.1).
3. Probe the cubes in descending order of volume — one ordered-map range
   probe per cube.  Track the searched volume; stop as soon as either a
   dominating point is found or the searched volume reaches
   ``(1 − ε) · vol(R(ℓ))``.

Setting ``ε = 0`` turns the same machinery into the exhaustive search used as
the paper's lower-bound comparison (Theorem 4.1); a cube budget protects
callers from accidentally launching an astronomically large exhaustive probe.

The search runs on the Z curve alone, as the paper's analysis does
(Theorems 3.1 and 4.1 are stated for it): class keys come straight from
``zorder_class_keys``.  Curves are compared elsewhere — run counts in Fig. 1
and E-CURVE, and the match index's ``IndexConfig(curve=…)``.

Steps 1–2 depend on the query alone and are captured as a
:class:`DominancePlan`; step 3 is :meth:`ApproximateDominanceIndex.execute_plan`,
the one search implementation: one loop over the plan's probes in schedule
order, a binary search each, up to the first hit.  The paper prices step 3 in
runs probed against ``n`` stored points, a trade that pays when ``n`` is large
against the schedule.  A plan therefore knows its size —
:attr:`DominancePlan.cubes`, from the census alone — before any cube is built,
and :meth:`repro.core.covering.ApproximateCoveringDetector.find_covering_profile`
executes it only against a detector holding more subscriptions than that;
smaller ones are compared directly and never materialise a schedule.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Hashable, Iterator, List, Optional, Sequence, Tuple

from ..geometry.rect import ExtremalRectangle
from ..geometry.universe import Universe
from ..index.sfc_array import SFCArray, StoredItem
from ..sfc.zorder import ZOrderCurve
from .decomposition import LevelClass, level_census, zorder_class_keys

__all__ = [
    "ApproximateDominanceIndex",
    "DominanceQueryResult",
    "TerminationReason",
    "DominancePlan",
    "ClassTable",
    "build_dominance_plan",
]


class TerminationReason:
    """Why a dominance query stopped (string constants, not an enum, for easy reporting)."""

    FOUND = "found"
    COVERAGE_REACHED = "coverage-reached"
    REGION_EXHAUSTED = "region-exhausted"
    CUBE_BUDGET = "cube-budget-exhausted"


@dataclass
class DominanceQueryResult:
    """Outcome and cost accounting of a single dominance query.

    Attributes
    ----------
    item:
        A stored item dominating the query point, or ``None`` when the search
        ended without finding one.
    epsilon:
        The ε used for this query (0 means exhaustive).
    region_volume:
        Volume of the full query region ``R(ℓ)``.
    searched_volume:
        Volume of the region actually probed before stopping.
    runs_probed:
        Number of ordered-map range probes issued (the paper's cost measure).
    cubes_examined:
        Number of standard cubes considered (≥ runs_probed when merging).
    classes_examined:
        Number of level classes ``D_i`` at least partially enumerated.
    aspect_ratio:
        ``α`` of the query rectangle.
    termination:
        One of the :class:`TerminationReason` constants.
    """

    item: Optional[StoredItem]
    epsilon: float
    region_volume: int
    searched_volume: int
    runs_probed: int
    cubes_examined: int
    classes_examined: int
    aspect_ratio: int
    termination: str

    @property
    def found(self) -> bool:
        """True when a dominating point was returned."""
        return self.item is not None

    @property
    def coverage(self) -> float:
        """Fraction of the query-region volume that was searched."""
        if self.region_volume == 0:
            return 1.0
        return self.searched_volume / self.region_volume


#: Cubes per probe batch: adjacent cubes of a batch merge into single runs,
#: and the accounting of a hit is that of the batch its probe belongs to.
BATCH_CUBES = 64


class ClassTable:
    """The probes of one level class of a plan, in search order.

    Probe ``p`` is the inclusive key range ``[los[p], his[p]]``.  Batch ``b``
    holds the probes up to ``batch_ends[b]``; its cumulative accounting
    follows from the cubes the class had taken by then.  ``stop`` belongs to
    the last batch.
    """

    def __init__(
        self,
        los: List[int],
        his: List[int],
        batch_sizes: List[int],
        cubes_before: int,
        cubes: int,
        volume_before: int,
        cube_volume: int,
        classes: int,
        stop: Optional[str],
    ) -> None:
        self.los = los
        self.his = his
        self.batch_ends = array("l", itertools.accumulate(batch_sizes))
        self.cubes_before = cubes_before
        self.cubes = cubes
        self.volume_before = volume_before
        self.cube_volume = cube_volume
        self.classes = classes
        self.stop = stop

    def accounting(self, batch: int) -> Tuple[int, int]:
        """Cumulative ``(cubes, volume)`` of the plan after batch ``batch`` of this class."""
        taken = min((batch + 1) * BATCH_CUBES, self.cubes)
        return self.cubes_before + taken, self.volume_before + taken * self.cube_volume


class DominancePlan:
    """The reusable half of a dominance query: its probe schedule.

    Decomposing the query's dominance region into standard cubes and merging
    their Z-order key runs depends only on the query point, the universe, ε
    and the cube budget — not on the index contents.  A plan captures that
    schedule once so that the same query point can be probed against many
    indexes without re-running the decomposition each time; it records all
    three parameters, and executes against any index over its universe.

    The schedule is held as one probe-ordered table per level class
    (:class:`ClassTable`) and nothing else.  Classes are materialised lazily,
    largest cubes first: an execution that finds its witness in an early
    class never builds the later ones — with a six-digit cube budget that is
    nearly the whole schedule — and later executions reuse what is there.
    """

    def __init__(
        self,
        universe: Universe,
        point: Tuple[int, ...],
        epsilon: float,
        cube_budget: int,
        region_volume: int,
        aspect_ratio: int,
        cubes: int,
        final_termination: str,
    ) -> None:
        self.universe = universe
        self.point = point
        self.epsilon = epsilon
        self.cube_budget = cube_budget
        self.region_volume = region_volume
        self.aspect_ratio = aspect_ratio
        #: Cubes the whole schedule takes (``cubes_examined`` of an execution
        #: that finds nothing), known from the census before any is built.
        self.cubes = cubes
        #: Termination reason of an execution that exhausts every class
        #: without a witness.
        self.final_termination = final_termination
        self._tables: List[ClassTable] = []
        #: Generator of the classes not built yet (set by the builder).
        self._producer: Optional[Iterator[ClassTable]] = None

    def tables(self) -> Iterator[ClassTable]:
        """Yield the per-class probe tables in search order, materialising on demand."""
        index = 0
        while True:
            while index < len(self._tables):
                yield self._tables[index]
                index += 1
            if self._producer is None:
                return
            try:
                table = next(self._producer)
            except StopIteration:
                self._producer = None
                return
            self._tables.append(table)

    def materialised_steps(self) -> int:
        """Number of probe batches enumerated so far (test/benchmark hook)."""
        return sum(len(table.batch_ends) for table in self._tables)


def _batched_ranges(
    keys: List[int], span: int, merge: bool
) -> Tuple[List[int], List[int], List[int]]:
    """Probe-ordered ``(los, his, ranges per batch)`` of equal-span cube ranges.

    With ``merge`` the ranges of a batch are sorted and joined wherever one
    starts right after the previous ends — what ``merge_key_ranges`` returns
    for them, since cubes of one class never overlap.
    """
    batch_starts = range(0, len(keys), BATCH_CUBES)
    if not merge:
        return (
            keys,
            [lo + span - 1 for lo in keys],
            [min(BATCH_CUBES, len(keys) - start) for start in batch_starts],
        )
    los: List[int] = []
    for start in batch_starts:
        los += sorted(keys[start : start + BATCH_CUBES])
    # A range starts at every batch boundary and wherever two neighbours of
    # a sorted batch are not adjacent; it ends right before the next start.
    starts = [True] + [lo - prev != span for prev, lo in zip(los, los[1:])]
    for start in batch_starts:
        starts[start] = True
    ends = starts[1:] + [True]
    return (
        list(itertools.compress(los, starts)),
        [lo + span - 1 for lo in itertools.compress(los, ends)],
        [sum(starts[start : start + BATCH_CUBES]) for start in batch_starts],
    )


def _class_schedule(
    region: ExtremalRectangle, target_volume: Optional[int], cube_budget: int
) -> Tuple[List[Tuple[LevelClass, int, Optional[str]]], str]:
    """What a plan takes from each level class, from the census alone.

    ``(class, cubes taken, reason the schedule stops inside it or None)`` for
    the classes the search reaches, largest cubes first, and the termination
    of an execution that exhausts them: Lemma 3.5's count per class, cut by
    the budget left and by the cubes the coverage target still needs.
    """
    schedule: List[Tuple[LevelClass, int, Optional[str]]] = []
    searched = 0
    cubes = 0
    for level_class in level_census(region):
        if target_volume is not None and searched >= target_volume:
            break
        cube_volume = level_class.cube_volume
        take = min(level_class.num_cubes, cube_budget - cubes)
        stop = TerminationReason.CUBE_BUDGET if take < level_class.num_cubes else None
        if target_volume is not None:
            # Coverage is checked after each cube, before the next budget check.
            enough = -((searched - target_volume) // cube_volume)
            if enough <= take:
                take = enough
                stop = TerminationReason.COVERAGE_REACHED
        schedule.append((level_class, take, stop))
        if stop is not None:
            return schedule, stop
        cubes += take
        searched += take * cube_volume
    if target_volume is not None and searched >= target_volume:
        return schedule, TerminationReason.COVERAGE_REACHED
    return schedule, TerminationReason.REGION_EXHAUSTED


def _coverage_target(region_volume: int, epsilon: float) -> int:
    """The volume a schedule searches before coverage ends it: ``⌈(1 − ε) · vol⌉``.

    The searched volume is an integer, so it reaches the (float) coverage
    target exactly when it reaches the target's ceiling.
    """
    return math.ceil((1.0 - epsilon) * region_volume)


def build_dominance_plan(
    universe: Universe,
    point: Sequence[int],
    *,
    epsilon: float,
    cube_budget: int,
    merge_adjacent_runs: bool = True,
) -> DominancePlan:
    """Build the probe schedule of an ε-approximate dominance query.

    The schedule follows Section 5 on the Z curve: level classes largest
    cubes first, the cubes of a class in grid order in batches of
    :data:`BATCH_CUBES` (each cube one run of Z keys), ended
    by the cube budget or, for ``ε > 0``, as soon as the enumerated volume
    reaches ``(1 − ε)`` of the region.  How many cubes a class contributes
    follows from Lemma 3.5's count, the budget left and the coverage target
    *before* anything is enumerated, so the plan knows its size at once
    (:attr:`DominancePlan.cubes`) and only cubes it probes are ever built.
    """
    if not 0 <= epsilon < 1:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    if cube_budget <= 0:
        raise ValueError(f"cube_budget must be positive, got {cube_budget}")
    region = ExtremalRectangle.from_query_point(universe, point)
    region_volume = region.volume
    target_volume = _coverage_target(region_volume, epsilon) if epsilon > 0 else None
    schedule, final_termination = _class_schedule(region, target_volume, cube_budget)

    plan = DominancePlan(
        universe=universe,
        point=tuple(int(x) for x in point),
        epsilon=epsilon,
        cube_budget=cube_budget,
        region_volume=region_volume,
        aspect_ratio=region.aspect_ratio,
        cubes=sum(take for _, take, _ in schedule),
        final_termination=final_termination,
    )

    def produce() -> Iterator[ClassTable]:
        searched = 0
        cubes = 0
        for classes_examined, (level_class, take, stop) in enumerate(schedule, start=1):
            cube_volume = level_class.cube_volume
            keys = zorder_class_keys(region, level_class.bit_index, take)
            # A cube spans as many keys as it has cells.
            los, his, batch_sizes = _batched_ranges(keys, cube_volume, merge_adjacent_runs)
            if stop is not None and take % BATCH_CUBES == 0:
                batch_sizes.append(0)  # the cut-off fell on a batch boundary
            yield ClassTable(
                los, his, batch_sizes, cubes, take, searched, cube_volume, classes_examined, stop
            )
            cubes += take
            searched += take * cube_volume

    plan._producer = produce()
    return plan


@dataclass
class ApproximateDominanceIndex:
    """Dynamic index answering exact and ε-approximate point dominance queries.

    Points are stored by their Z-order key (:attr:`array`), the curve the
    paper's search and its bounds are stated for.

    Parameters
    ----------
    universe:
        The discrete universe the points live in.
    epsilon:
        Default approximation parameter used by :meth:`query` when none is
        given; must lie in ``[0, 1)`` (0 = exhaustive).
    merge_adjacent_runs:
        When True, key ranges of cubes belonging to the same level class are
        merged before probing, so adjacent cubes cost a single probe
        (``runs(T) ≤ cubes(T)``, Lemma 3.1).  Defaults to True.
    cube_budget:
        Hard cap on the number of cubes a single query may examine.  Exceeding
        it stops the query with ``termination == CUBE_BUDGET``; this protects
        exhaustive (ε=0) queries over large, high-aspect-ratio regions whose
        cost Theorem 4.1 shows can blow up.
    """

    universe: Universe
    epsilon: float = 0.05
    merge_adjacent_runs: bool = True
    cube_budget: int = 1_000_000
    array: SFCArray = field(init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.epsilon < 1:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.cube_budget <= 0:
            raise ValueError(f"cube_budget must be positive, got {self.cube_budget}")
        self.array = SFCArray(ZOrderCurve(self.universe))

    # ---------------------------------------------------------------- updates
    def __len__(self) -> int:
        return len(self.array)

    def insert(self, item_id: Hashable, point: Sequence[int]) -> None:
        """Insert (or move) a point under ``item_id``."""
        self.array.add(item_id, point)

    def remove(self, item_id: Hashable) -> bool:
        """Remove a point by id; return True when it was present."""
        return self.array.remove(item_id)

    def __contains__(self, item_id: Hashable) -> bool:
        return item_id in self.array

    # ---------------------------------------------------------------- queries
    def query(
        self,
        point: Sequence[int],
        epsilon: Optional[float] = None,
        exclude: Optional[Hashable] = None,
    ) -> DominanceQueryResult:
        """Answer an ε-approximate dominance query for ``point``.

        Searches at least a ``(1 − ε)`` volume fraction of the dominance
        region and returns the first stored point found inside it (any such
        point is a valid witness).  With ``epsilon=0`` the search is
        exhaustive up to the cube budget.  ``exclude`` is as in
        :meth:`execute_plan`.
        """
        return self.execute_plan(self.plan(point, epsilon), exclude)

    # ------------------------------------------------------------------ plans
    def plan(self, point: Sequence[int], epsilon: Optional[float] = None) -> DominancePlan:
        """Build a reusable probe schedule for ``point`` (see :class:`DominancePlan`)."""
        eps = self.epsilon if epsilon is None else epsilon
        return build_dominance_plan(
            self.universe,
            point,
            epsilon=eps,
            cube_budget=self.cube_budget,
            merge_adjacent_runs=self.merge_adjacent_runs,
        )

    def execute_plan(
        self, plan: DominancePlan, exclude: Optional[Hashable] = None
    ) -> DominanceQueryResult:
        """Search this index along a plan: the first probe, in schedule order, that hits.

        Level class by level class (materialising each on first use),
        :meth:`SFCArray.first_probe_hit` probes the class's key ranges in
        order and stops at the first that holds a stored key;
        ``runs_probed`` counts the probes it made.  The plan must have been
        built for this index's universe: its key ranges are sized by it.  The
        item ``exclude`` names is skipped as if it were not stored; the index
        is not modified.
        """
        if plan.universe != self.universe:
            raise ValueError("plan universe does not match the index universe")
        runs_probed = 0
        cubes = 0
        volume = 0
        classes = 0
        witness: Optional[StoredItem] = None
        for table in plan.tables():
            classes = table.classes
            hit = self.array.first_probe_hit(table.los, table.his, exclude)
            if hit is not None:
                probe, witness = hit
                runs_probed += probe + 1
                cubes, volume = table.accounting(bisect_right(table.batch_ends, probe))
                break
            runs_probed += len(table.los)
            cubes, volume = table.accounting(len(table.batch_ends) - 1)
        return DominanceQueryResult(
            item=witness,
            epsilon=plan.epsilon,
            region_volume=plan.region_volume,
            searched_volume=volume,
            runs_probed=runs_probed,
            cubes_examined=cubes,
            classes_examined=classes,
            aspect_ratio=plan.aspect_ratio,
            termination=(
                TerminationReason.FOUND if witness is not None else plan.final_termination
            ),
        )
