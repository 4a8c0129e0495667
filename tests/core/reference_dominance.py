"""Reference oracles for the dominance search: the implementations it replaced.

Until the probe schedule became a per-class key-sorted table, the library
carried two copies of the Section 5 search: an interleaved
decompose-and-probe loop behind ``ApproximateDominanceIndex.query`` and a
generator of ``PlanStep`` batches behind ``build_dominance_plan``, both fed
by a per-cube Z-order enumerator.  They are kept here, verbatim apart from
taking the index as an argument, as what the table-driven producer and the
keyed join are compared against: same steps (``plan_steps`` renders the
tables in the old form), same witness, same counters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.approx_dominance import (
    ApproximateDominanceIndex,
    DominancePlan,
    DominanceQueryResult,
    TerminationReason,
)
from repro.core.decomposition import cubes_in_class, level_census
from repro.geometry.bits import bit_at, suffix_from
from repro.geometry.rect import ExtremalRectangle
from repro.index.sfc_array import StoredItem
from repro.sfc.runs import merge_key_ranges
from repro.sfc.zorder import ZOrderCurve

BATCH_LIMIT = 64


@dataclass
class PlanStep:
    """One probe batch of the generator-driven plan (its former representation).

    ``ranges`` are the (merged) key ranges to probe, in search order; the
    remaining fields are *cumulative* accounting snapshots taken after the
    batch's cubes were enumerated.  ``stop`` carries a termination reason
    when the search must end after this batch even without a witness.
    """

    ranges: Tuple[Tuple[int, int], ...]
    cubes: int
    volume: int
    classes: int
    stop: Optional[str] = None


def plan_steps(plan: DominancePlan) -> List[PlanStep]:
    """A table-driven plan rendered batch by batch, for comparison with the reference."""
    steps = []
    for table in plan.tables():
        start = 0
        last = len(table.batch_ends) - 1
        for batch, end in enumerate(table.batch_ends):
            cubes, volume = table.accounting(batch)
            steps.append(
                PlanStep(
                    ranges=tuple(
                        (table.los[row], table.his[row]) for row in table.row_of_probe[start:end]
                    ),
                    cubes=cubes,
                    volume=volume,
                    classes=table.classes,
                    stop=table.stop if batch == last else None,
                )
            )
            start = end
    return steps


def reference_zorder_key_ranges_in_class(
    extremal: ExtremalRectangle, bit_index: int
) -> Iterator[Tuple[int, int]]:
    """Z-curve key range of every cube of class ``D_i``, one generator step per cube."""
    universe = extremal.universe
    lengths = extremal.lengths
    dims = extremal.dims
    side = universe.side
    low_bits = dims * bit_index
    cube_span = 1 << low_bits

    def spread(value: int, shift: int, cache: Dict[int, int]) -> int:
        cached = cache.get(value)
        if cached is None:
            cached = 0
            v = value
            j = 0
            while v:
                if v & 1:
                    cached |= 1 << (j * dims + shift)
                v >>= 1
                j += 1
            cache[value] = cached
        return cached

    for pivot in range(dims):
        if not bit_at(lengths[pivot], bit_index):
            continue
        coord_lists: List[List[int]] = []
        empty = False
        for dim in range(dims):
            if dim == pivot:
                extent_low = side - suffix_from(lengths[dim], bit_index)
                coords = [extent_low >> bit_index]
            elif dim < pivot:
                extent = suffix_from(lengths[dim], bit_index + 1)
                if extent == 0:
                    empty = True
                    break
                first = (side - extent) >> bit_index
                coords = list(range(first, first + (extent >> bit_index)))
            else:
                extent = suffix_from(lengths[dim], bit_index)
                first = (side - extent) >> bit_index
                coords = list(range(first, first + (extent >> bit_index)))
            coord_lists.append(coords)
        if empty:
            continue
        caches: List[Dict[int, int]] = [{} for _ in range(dims)]
        spread_lists = [
            [spread(c, dims - 1 - dim, caches[dim]) for c in coord_lists[dim]]
            for dim in range(dims)
        ]
        for parts in itertools.product(*spread_lists):
            prefix = 0
            for part in parts:
                prefix |= part
            lo = prefix << low_bits
            yield (lo, lo + cube_span - 1)


def _class_key_ranges(curve, region: ExtremalRectangle, bit_index: int):
    if isinstance(curve, ZOrderCurve):
        return reference_zorder_key_ranges_in_class(region, bit_index)
    return (curve.cube_key_range(cube) for cube in cubes_in_class(region, bit_index))


def reference_plan_steps(
    universe,
    point,
    *,
    epsilon: float,
    cube_budget: int,
    curve=None,
    merge_adjacent_runs: bool = True,
) -> Tuple[List[PlanStep], str]:
    """Every ``PlanStep`` of the generator-driven producer, and its final termination."""
    if curve is None:
        curve = ZOrderCurve(universe)
    region = ExtremalRectangle.from_query_point(universe, point)
    target_volume = (1.0 - epsilon) * region.volume
    steps: List[PlanStep] = []

    def produce() -> str:
        searched = 0
        cubes = 0
        classes_examined = 0
        for level_class in level_census(region):
            if searched >= target_volume and epsilon > 0:
                return TerminationReason.COVERAGE_REACHED
            classes_examined += 1
            cube_volume = level_class.cube_volume
            pending: List[Tuple[int, int]] = []
            stop: Optional[str] = None
            for key_range in _class_key_ranges(curve, region, level_class.bit_index):
                if cubes >= cube_budget:
                    stop = TerminationReason.CUBE_BUDGET
                    break
                cubes += 1
                searched += cube_volume
                pending.append(key_range)
                if len(pending) >= BATCH_LIMIT:
                    steps.append(
                        PlanStep(
                            ranges=tuple(
                                merge_key_ranges(pending) if merge_adjacent_runs else pending
                            ),
                            cubes=cubes,
                            volume=searched,
                            classes=classes_examined,
                        )
                    )
                    pending.clear()
                if epsilon > 0 and searched >= target_volume:
                    stop = TerminationReason.COVERAGE_REACHED
                    break
            if pending or stop is not None:
                steps.append(
                    PlanStep(
                        ranges=tuple(
                            merge_key_ranges(pending) if merge_adjacent_runs else pending
                        ),
                        cubes=cubes,
                        volume=searched,
                        classes=classes_examined,
                        stop=stop,
                    )
                )
            if stop is not None:
                return stop
        if searched >= target_volume and epsilon > 0:
            return TerminationReason.COVERAGE_REACHED
        return TerminationReason.REGION_EXHAUSTED

    final_termination = produce()
    return steps, final_termination


def reference_query(
    index: ApproximateDominanceIndex, point, epsilon: Optional[float] = None
) -> DominanceQueryResult:
    """The interleaved search: decompose a class, probe it batch by batch, repeat.

    One ``first_in_key_range`` call per probe, so ``index.array.stats`` moves
    exactly as the forward loop's does.
    """
    eps = index.epsilon if epsilon is None else epsilon
    region = ExtremalRectangle.from_query_point(index.universe, point)
    region_volume = region.volume
    target_volume = (1.0 - eps) * region_volume

    searched_volume = 0
    runs_probed = 0
    cubes_examined = 0
    classes_examined = 0
    witness: Optional[StoredItem] = None
    termination = TerminationReason.REGION_EXHAUSTED

    for level_class in level_census(region):
        if searched_volume >= target_volume and eps > 0:
            termination = TerminationReason.COVERAGE_REACHED
            break
        classes_examined += 1
        witness, probes, examined, volume, stopped = _search_class(
            index, region, level_class.bit_index, level_class.cube_volume,
            cubes_examined, target_volume, searched_volume, eps,
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
        if searched_volume >= target_volume and eps > 0:
            termination = TerminationReason.COVERAGE_REACHED

    return DominanceQueryResult(
        item=witness,
        epsilon=eps,
        region_volume=region_volume,
        searched_volume=searched_volume,
        runs_probed=runs_probed,
        cubes_examined=cubes_examined,
        classes_examined=classes_examined,
        aspect_ratio=region.aspect_ratio,
        termination=termination,
    )


def _search_class(
    index: ApproximateDominanceIndex,
    region: ExtremalRectangle,
    bit_index: int,
    cube_volume: int,
    cubes_so_far: int,
    target_volume: float,
    volume_so_far: int,
    epsilon: float,
) -> Tuple[Optional[StoredItem], int, int, int, Optional[str]]:
    """Probe the cubes of one level class; returns (witness, probes, cubes, volume, stop)."""
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
            if index.merge_adjacent_runs
            else list(pending_ranges)
        )
        pending_ranges.clear()
        for key_range in ranges:
            probes += 1
            hit = index.array.first_in_key_range(key_range)
            if hit is not None:
                return hit
        return None

    for key_range in _class_key_ranges(index.curve, region, bit_index):
        if cubes_so_far + examined >= index.cube_budget:
            witness = flush()
            return witness, probes, examined, volume, (
                None if witness is not None else TerminationReason.CUBE_BUDGET
            )
        examined += 1
        volume += cube_volume
        pending_ranges.append(key_range)
        if len(pending_ranges) >= BATCH_LIMIT:
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
