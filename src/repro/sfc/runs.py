"""Run computation: how many contiguous key segments does a region occupy?

A *run* is a maximal set of cells of a region that are consecutive in the SFC
order.  The cost of an SFC-array query over a region is proportional to the
number of runs the region decomposes into (each run costs two binary searches
regardless of its length), so ``runs(T)`` is the central cost measure of the
paper.

``runs(T)`` is computed here by taking any exact partition of ``T`` into
standard cubes (each cube is a single run by Fact 2.1), converting the cubes
to key ranges and merging ranges that touch.  The number of merged ranges is
exactly the number of maximal contiguous key segments of ``T`` — independent
of which exact cube partition was used — because the union of the ranges is
precisely the key set of ``T``.

For rectangles aligned to a coarse grid small enough to tabulate,
:class:`GridRunTable` reads the same runs off one bit per grid cell without
building a partition at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from ..geometry.rect import Rectangle, StandardCube
from .base import KeyRange, SpaceFillingCurve

__all__ = ["merge_key_ranges", "cube_key_ranges", "count_runs", "RunProfile", "GridRunTable"]


def merge_key_ranges(ranges: Iterable[KeyRange]) -> List[KeyRange]:
    """Merge inclusive key ranges that overlap or are adjacent.

    Returns the maximal disjoint ranges sorted by start key.

    >>> merge_key_ranges([(4, 7), (0, 3), (10, 12)])
    [(0, 7), (10, 12)]
    """
    # Validate everything up front, in input order, so which inverted range is
    # reported does not depend on where it happens to land after sorting (and
    # no partial merge work is done before the error surfaces).
    materialised = list(ranges)
    for lo, hi in materialised:
        if lo > hi:
            raise ValueError(f"invalid key range [{lo}, {hi}]")
    sorted_ranges = sorted(materialised)
    merged: List[KeyRange] = []
    for lo, hi in sorted_ranges:
        if merged and lo <= merged[-1][1] + 1:
            prev_lo, prev_hi = merged[-1]
            merged[-1] = (prev_lo, max(prev_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


def cube_key_ranges(curve: SpaceFillingCurve, cubes: Sequence[StandardCube]) -> List[KeyRange]:
    """Return the key range of each standard cube under ``curve`` (unmerged)."""
    return [curve.cube_key_range(cube) for cube in cubes]


def count_runs(curve: SpaceFillingCurve, cubes: Sequence[StandardCube]) -> int:
    """Return ``runs(T)`` for the region partitioned exactly by ``cubes``."""
    return len(merge_key_ranges(cube_key_ranges(curve, cubes)))


class GridRunTable:
    """Exact key runs of grid-aligned rectangles, read off per-axis bit masks.

    The universe is cut into a grid of ``2^bits`` standard cubes per side.
    Each grid cube is one key range (Fact 2.1) and the ranges of all of them
    tile the key space in order of their common key prefix, so a set of grid
    cubes is an integer with one bit per cube, at the position of its prefix,
    and the runs of the set are the runs of 1-bits.  The table keeps, per
    axis, the mask of the cubes whose coordinate is below each value; a
    rectangle is then the AND of one mask difference per axis — no cube is
    enumerated, nothing is sorted or merged.  The result equals
    ``merge_key_ranges`` over the key ranges of ``decompose_rectangle``'s
    partition of the same rectangle, for every curve whose standard cubes are
    key prefixes (all of :data:`~repro.sfc.factory.CURVE_KINDS`).

    Building the table keys every grid cube once (``2^(bits·d)`` of them), so
    it is meant for the few-thousand-cube grids the match index snaps to.
    """

    def __init__(self, curve: SpaceFillingCurve, bits: int) -> None:
        universe = curve.universe
        if not 0 <= bits <= universe.order:
            raise ValueError(f"bits must lie in [0, {universe.order}], got {bits}")
        side = 1 << bits
        cube_side = 1 << (universe.order - bits)
        self.bits = bits
        self._shift = shift = universe.dims * (universe.order - bits)
        cubes = list(itertools.product(range(side), repeat=universe.dims))
        anchors = curve.keys([tuple([c * cube_side for c in cube]) for cube in cubes])
        at_value = [[0] * side for _ in range(universe.dims)]
        for cube, anchor in zip(cubes, anchors):
            bit = 1 << (anchor >> shift)
            for axis, value in enumerate(cube):
                at_value[axis][value] |= bit
        # _below[axis][v]: the grid cubes whose coordinate on ``axis`` is < v.
        self._below: List[List[int]] = []
        for masks in at_value:
            below = [0]
            for mask in masks:
                below.append(below[-1] | mask)
            self._below.append(below)

    def runs(self, grid_ranges: Sequence[Tuple[int, int]]) -> List[KeyRange]:
        """Maximal key runs, in key order, of the rectangle ``grid_ranges`` spans.

        ``grid_ranges`` are inclusive per-axis ranges in grid-cube coordinates
        (``0 <= lo <= hi < 2^bits``, one per dimension; not re-checked).
        """
        cubes = -1
        for below, (lo, hi) in zip(self._below, grid_ranges):
            cubes &= below[hi + 1] ^ below[lo]
        starts = cubes & ~(cubes << 1)
        ends = cubes & ~(cubes >> 1)
        shift = self._shift
        tail = (1 << shift) - 1
        runs: List[KeyRange] = []
        while starts:
            # Lowest set bit of each: the next run's first and last grid cube.
            first = starts & -starts
            last = ends & -ends
            starts ^= first
            ends ^= last
            runs.append(
                ((first.bit_length() - 1) << shift, ((last.bit_length() - 1) << shift) | tail)
            )
        return runs


@dataclass(frozen=True)
class RunProfile:
    """Summary of how a region maps onto an SFC: runs, cubes, and volumes.

    Attributes
    ----------
    curve_name:
        Name of the SFC used.
    num_cubes:
        ``cubes(T)`` — size of the minimal standard-cube partition.
    num_runs:
        ``runs(T)`` — number of maximal contiguous key segments.
    total_volume:
        Number of cells in the region.
    largest_run_volume:
        Number of cells in the single largest run.
    run_volumes:
        Volume of every run, descending.
    """

    curve_name: str
    num_cubes: int
    num_runs: int
    total_volume: int
    largest_run_volume: int
    run_volumes: Tuple[int, ...]

    @property
    def largest_run_fraction(self) -> float:
        """Fraction of the region's volume contained in its largest run."""
        if self.total_volume == 0:
            return 0.0
        return self.largest_run_volume / self.total_volume

    @classmethod
    def from_cubes(
        cls, curve: SpaceFillingCurve, cubes: Sequence[StandardCube]
    ) -> "RunProfile":
        """Build a profile from an exact standard-cube partition of a region.

        Raises ``ValueError`` when the cubes do not form an exact partition:
        the merged key ranges must account for exactly the cells the cubes
        claim, otherwise overlapping or colliding cubes would silently corrupt
        ``runs(T)`` and every statistic derived from it.
        """
        ranges = merge_key_ranges(cube_key_ranges(curve, cubes))
        volumes = tuple(sorted((hi - lo + 1 for lo, hi in ranges), reverse=True))
        total = sum(cube.volume for cube in cubes)
        merged_volume = sum(volumes)
        if merged_volume != total:
            raise ValueError(
                f"cubes are not an exact partition: merged key ranges cover "
                f"{merged_volume} cells but the cubes claim {total}"
            )
        return cls(
            curve_name=curve.name,
            num_cubes=len(cubes),
            num_runs=len(ranges),
            total_volume=total,
            largest_run_volume=volumes[0] if volumes else 0,
            run_volumes=volumes,
        )


def brute_force_run_profile(curve: SpaceFillingCurve, rect: Rectangle) -> RunProfile:
    """Exhaustively compute the run profile of a small rectangle (testing oracle)."""
    keys = sorted(curve.keys_of_rectangle(rect))
    if not keys:
        return RunProfile(curve.name, 0, 0, 0, 0, ())
    run_volumes: List[int] = []
    current = 1
    for prev, cur in zip(keys, keys[1:]):
        if cur == prev + 1:
            current += 1
        else:
            run_volumes.append(current)
            current = 1
    run_volumes.append(current)
    run_volumes.sort(reverse=True)
    return RunProfile(
        curve_name=curve.name,
        num_cubes=-1,  # not computed by the brute-force oracle
        num_runs=len(run_volumes),
        total_volume=len(keys),
        largest_run_volume=run_volumes[0],
        run_volumes=tuple(run_volumes),
    )
