"""ε-approximate point dominance over a space filling curve (the paper's core index).

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
   single contiguous run of SFC keys (Fact 2.1).
3. Probe the cubes in descending order of volume — one ordered-map range
   probe per cube.  Track the searched volume; stop as soon as either a
   dominating point is found or the searched volume reaches
   ``(1 − ε) · vol(R(ℓ))``.

Setting ``ε = 0`` turns the same machinery into the exhaustive search used as
the paper's lower-bound comparison (Theorem 4.1); a cube budget protects
callers from accidentally launching an astronomically large exhaustive probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, List, Optional, Sequence, Tuple

from ..geometry.rect import ExtremalRectangle
from ..geometry.universe import Universe
from ..index.sfc_array import SFCArray, StoredItem
from ..sfc.base import KeyRange, SpaceFillingCurve
from ..sfc.runs import merge_key_ranges
from ..sfc.zorder import ZOrderCurve
from .decomposition import cubes_in_class, level_census, zorder_key_ranges_in_class

__all__ = [
    "ApproximateDominanceIndex",
    "DominanceQueryResult",
    "TerminationReason",
    "DominancePlan",
    "PlanStep",
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


@dataclass
class PlanStep:
    """One probe batch of a :class:`DominancePlan`.

    ``ranges`` are the (merged) key ranges to probe, in search order; the
    remaining fields are *cumulative* accounting snapshots taken after the
    batch's cubes were enumerated, so executing a plan reproduces the exact
    counters of the interleaved search.  ``stop`` carries a termination
    reason when the search must end after this batch even without a witness
    (cube budget or coverage target hit mid-class).
    """

    ranges: Tuple[KeyRange, ...]
    cubes: int
    volume: int
    classes: int
    stop: Optional[str] = None


class DominancePlan:
    """The reusable half of a dominance query: its probe schedule.

    Decomposing the query's dominance region into standard cubes and merging
    their key runs depends only on the query point, the universe, the curve,
    ε and the cube budget — not on the index contents.  A plan captures that
    schedule once so that the same query point can be probed against many
    indexes (one covering strategy per broker link) without re-running the
    decomposition each time.  The key ranges are curve-specific, so the plan
    records the curve it was built for and can only be executed against an
    index using the same curve.

    Steps are materialised lazily: the underlying enumeration is pulled only
    as far as an execution needs it, so a query that finds a witness in the
    first batch pays no more decomposition work than the interleaved search
    would — and later executions reuse the already-materialised prefix.
    """

    def __init__(
        self,
        universe: Universe,
        point: Tuple[int, ...],
        epsilon: float,
        cube_budget: int,
        region_volume: int,
        aspect_ratio: int,
        producer: Iterator[PlanStep],
        curve_kind: str,
    ) -> None:
        self.universe = universe
        self.point = point
        self.epsilon = epsilon
        self.cube_budget = cube_budget
        self.region_volume = region_volume
        self.aspect_ratio = aspect_ratio
        self.curve_kind = curve_kind
        self._steps: List[PlanStep] = []
        self._producer: Optional[Iterator[PlanStep]] = producer
        #: Termination reason when an execution exhausts every step without a
        #: witness and no step carried an explicit ``stop``.  Set by the
        #: producer when it runs dry.
        self.final_termination: str = TerminationReason.REGION_EXHAUSTED

    def steps(self) -> Iterator[PlanStep]:
        """Yield the plan's probe batches, materialising them on demand."""
        index = 0
        while True:
            while index < len(self._steps):
                yield self._steps[index]
                index += 1
            if self._producer is None:
                return
            try:
                step = next(self._producer)
            except StopIteration:
                self._producer = None
                return
            self._steps.append(step)

    def materialised_steps(self) -> int:
        """Number of probe batches enumerated so far (test/benchmark hook)."""
        return len(self._steps)


def build_dominance_plan(
    universe: Universe,
    point: Sequence[int],
    *,
    epsilon: float,
    cube_budget: int,
    curve: Optional[SpaceFillingCurve] = None,
    merge_adjacent_runs: bool = True,
) -> DominancePlan:
    """Build the probe schedule of an ε-approximate dominance query.

    The schedule is exactly the one :meth:`ApproximateDominanceIndex.query`
    follows — same class order, same batch boundaries, same budget and
    coverage cut-offs — so executing the plan returns the identical witness
    and termination the interleaved search would.
    """
    if not 0 <= epsilon < 1:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    if cube_budget <= 0:
        raise ValueError(f"cube_budget must be positive, got {cube_budget}")
    if curve is None:
        curve = ZOrderCurve(universe)
    elif curve.universe != universe:
        # A curve over a different universe (fewer dimensions, or an order
        # that does not match the universe's bit depth) would produce keys of
        # the wrong width and silently mis-route every probe.
        raise ValueError(
            f"curve universe {curve.universe} does not match the plan universe "
            f"{universe}; keys would be mis-sized"
        )
    region = ExtremalRectangle.from_query_point(universe, point)
    region_volume = region.volume
    target_volume = (1.0 - epsilon) * region_volume
    batch_limit = 64

    plan = DominancePlan(
        universe=universe,
        point=tuple(int(x) for x in point),
        epsilon=epsilon,
        cube_budget=cube_budget,
        region_volume=region_volume,
        aspect_ratio=region.aspect_ratio,
        producer=iter(()),  # replaced below; needs `plan` in scope
        curve_kind=curve.kind,
    )

    def produce() -> Iterator[PlanStep]:
        searched = 0
        cubes = 0
        classes_examined = 0
        for level_class in level_census(region):
            if searched >= target_volume and epsilon > 0:
                plan.final_termination = TerminationReason.COVERAGE_REACHED
                return
            classes_examined += 1
            cube_volume = level_class.cube_volume
            if isinstance(curve, ZOrderCurve):
                key_ranges = zorder_key_ranges_in_class(region, level_class.bit_index)
            else:
                key_ranges = (
                    curve.cube_key_range(cube)
                    for cube in cubes_in_class(region, level_class.bit_index)
                )
            pending: List[KeyRange] = []
            stop: Optional[str] = None
            for key_range in key_ranges:
                if cubes >= cube_budget:
                    stop = TerminationReason.CUBE_BUDGET
                    break
                cubes += 1
                searched += cube_volume
                pending.append(key_range)
                if len(pending) >= batch_limit:
                    yield PlanStep(
                        ranges=tuple(
                            merge_key_ranges(pending)
                            if merge_adjacent_runs
                            else pending
                        ),
                        cubes=cubes,
                        volume=searched,
                        classes=classes_examined,
                    )
                    pending.clear()
                if epsilon > 0 and searched >= target_volume:
                    stop = TerminationReason.COVERAGE_REACHED
                    break
            if pending or stop is not None:
                yield PlanStep(
                    ranges=tuple(
                        merge_key_ranges(pending) if merge_adjacent_runs else pending
                    ),
                    cubes=cubes,
                    volume=searched,
                    classes=classes_examined,
                    stop=stop,
                )
            if stop is not None:
                plan.final_termination = stop
                return
        if searched >= target_volume and epsilon > 0:
            plan.final_termination = TerminationReason.COVERAGE_REACHED

    plan._producer = produce()
    return plan


@dataclass
class ApproximateDominanceIndex:
    """Dynamic index answering exact and ε-approximate point dominance queries.

    Parameters
    ----------
    universe:
        The discrete universe the points live in.
    epsilon:
        Default approximation parameter used by :meth:`query` when none is
        given; must lie in ``[0, 1)`` (0 = exhaustive).
    curve:
        The space filling curve; defaults to the Z-order curve analysed in the
        paper.  Any recursive-partitioning curve works.
    backend:
        Ordered-map backend for the SFC array (``"avl"``, ``"skiplist"`` or
        ``"sortedlist"``).
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
    curve: Optional[SpaceFillingCurve] = None
    backend: str = "avl"
    merge_adjacent_runs: bool = True
    cube_budget: int = 1_000_000
    seed: Optional[int] = None
    array: SFCArray = field(init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.epsilon < 1:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.cube_budget <= 0:
            raise ValueError(f"cube_budget must be positive, got {self.cube_budget}")
        if self.curve is None:
            self.curve = ZOrderCurve(self.universe)
        elif self.curve.universe != self.universe:
            raise ValueError("curve universe does not match the index universe")
        self.array = SFCArray(self.curve, backend=self.backend, seed=self.seed)

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
        self, point: Sequence[int], epsilon: Optional[float] = None
    ) -> DominanceQueryResult:
        """Answer an ε-approximate dominance query for ``point``.

        Searches at least a ``(1 − ε)`` volume fraction of the dominance
        region and returns the first stored point found inside it (any such
        point is a valid witness).  With ``epsilon=0`` the search is
        exhaustive up to the cube budget.
        """
        eps = self.epsilon if epsilon is None else epsilon
        if not 0 <= eps < 1:
            raise ValueError(f"epsilon must lie in [0, 1), got {eps}")
        region = ExtremalRectangle.from_query_point(self.universe, point)
        return self._search_region(region, eps)

    def exhaustive_query(self, point: Sequence[int]) -> DominanceQueryResult:
        """Answer an exhaustive dominance query (ε = 0), subject to the cube budget."""
        return self.query(point, epsilon=0.0)

    def find_dominating(
        self, point: Sequence[int], epsilon: Optional[float] = None
    ) -> Optional[StoredItem]:
        """Convenience wrapper returning only the witness item (or ``None``)."""
        return self.query(point, epsilon=epsilon).item

    # ------------------------------------------------------------------ plans
    def plan(self, point: Sequence[int], epsilon: Optional[float] = None) -> DominancePlan:
        """Build a reusable probe schedule for ``point`` (see :class:`DominancePlan`)."""
        eps = self.epsilon if epsilon is None else epsilon
        return build_dominance_plan(
            self.universe,
            point,
            epsilon=eps,
            cube_budget=self.cube_budget,
            curve=self.curve,
            merge_adjacent_runs=self.merge_adjacent_runs,
        )

    def execute_plan(self, plan: DominancePlan) -> DominanceQueryResult:
        """Probe this index along a prebuilt plan.

        Returns exactly what :meth:`query` would for the plan's point and ε:
        the plan replays the same probe order, batch boundaries and budget /
        coverage cut-offs, only the decomposition work is skipped.  The plan
        must have been built for this index's universe *and* curve — a plan's
        key ranges are curve-specific.
        """
        if plan.universe != self.universe:
            raise ValueError("plan universe does not match the index universe")
        assert self.curve is not None
        if plan.curve_kind != self.curve.kind:
            raise ValueError(
                f"plan was built for the {plan.curve_kind!r} curve but the index "
                f"uses {self.curve.kind!r}; its key ranges do not apply"
            )
        runs_probed = 0
        cubes = 0
        volume = 0
        classes = 0
        witness: Optional[StoredItem] = None
        termination: Optional[str] = None
        for step in plan.steps():
            cubes = step.cubes
            volume = step.volume
            classes = step.classes
            for key_range in step.ranges:
                runs_probed += 1
                hit = self.array.first_in_key_range(key_range)
                if hit is not None:
                    witness = hit
                    termination = TerminationReason.FOUND
                    break
            if witness is not None:
                break
            if step.stop is not None:
                termination = step.stop
                break
        if termination is None:
            termination = plan.final_termination
        return DominanceQueryResult(
            item=witness,
            epsilon=plan.epsilon,
            region_volume=plan.region_volume,
            searched_volume=volume,
            runs_probed=runs_probed,
            cubes_examined=cubes,
            classes_examined=classes,
            aspect_ratio=plan.aspect_ratio,
            termination=termination,
        )

    # -------------------------------------------------------------- internals
    def _search_region(self, region: ExtremalRectangle, epsilon: float) -> DominanceQueryResult:
        region_volume = region.volume
        target_volume = (1.0 - epsilon) * region_volume
        classes = level_census(region)

        searched_volume = 0
        runs_probed = 0
        cubes_examined = 0
        classes_examined = 0
        witness: Optional[StoredItem] = None
        termination = TerminationReason.REGION_EXHAUSTED

        for level_class in classes:
            if searched_volume >= target_volume and epsilon > 0:
                termination = TerminationReason.COVERAGE_REACHED
                break
            classes_examined += 1
            witness, probes, examined, volume, stopped = self._search_class(
                region, level_class.bit_index, level_class.cube_volume,
                cubes_examined, target_volume, searched_volume, epsilon,
            )
            runs_probed += probes
            cubes_examined += examined
            searched_volume += volume
            if witness is not None:
                termination = TerminationReason.FOUND
                break
            if stopped is not None:
                termination = stopped
                break
        else:
            if searched_volume >= target_volume and epsilon > 0:
                termination = TerminationReason.COVERAGE_REACHED

        return DominanceQueryResult(
            item=witness,
            epsilon=epsilon,
            region_volume=region_volume,
            searched_volume=searched_volume,
            runs_probed=runs_probed,
            cubes_examined=cubes_examined,
            classes_examined=classes_examined,
            aspect_ratio=region.aspect_ratio,
            termination=termination,
        )

    def _search_class(
        self,
        region: ExtremalRectangle,
        bit_index: int,
        cube_volume: int,
        cubes_so_far: int,
        target_volume: float,
        volume_so_far: int,
        epsilon: float,
    ) -> Tuple[Optional[StoredItem], int, int, int, Optional[str]]:
        """Probe the cubes of one level class; returns (witness, probes, cubes, volume, stop)."""
        assert self.curve is not None
        probes = 0
        examined = 0
        volume = 0
        pending_ranges: List[Tuple[int, int]] = []

        def flush() -> Optional[StoredItem]:
            nonlocal probes
            if not pending_ranges:
                return None
            ranges = (
                merge_key_ranges(pending_ranges)
                if self.merge_adjacent_runs
                else list(pending_ranges)
            )
            pending_ranges.clear()
            for key_range in ranges:
                probes += 1
                hit = self.array.first_in_key_range(key_range)
                if hit is not None:
                    return hit
            return None

        # The Z curve has a dedicated key-range enumerator that avoids building
        # cube objects; other recursive curves go through the generic path.
        if isinstance(self.curve, ZOrderCurve):
            key_ranges = zorder_key_ranges_in_class(region, bit_index)
        else:
            curve = self.curve
            key_ranges = (
                curve.cube_key_range(cube) for cube in cubes_in_class(region, bit_index)
            )

        # Batch probes so that adjacent cubes can be merged into single runs,
        # but flush periodically to preserve the early-exit behaviour.
        batch_limit = 64
        for key_range in key_ranges:
            if cubes_so_far + examined >= self.cube_budget:
                witness = flush()
                return witness, probes, examined, volume, (
                    None if witness is not None else TerminationReason.CUBE_BUDGET
                )
            examined += 1
            volume += cube_volume
            pending_ranges.append(key_range)
            if len(pending_ranges) >= batch_limit:
                witness = flush()
                if witness is not None:
                    return witness, probes, examined, volume, None
            if epsilon > 0 and volume_so_far + volume >= target_volume:
                witness = flush()
                return witness, probes, examined, volume, (
                    None if witness is not None else TerminationReason.COVERAGE_REACHED
                )
        witness = flush()
        return witness, probes, examined, volume, None
