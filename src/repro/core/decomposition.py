"""Greedy decomposition of query regions into standard cubes.

This module implements the combinatorial machinery of Sections 3 and 5 of the
paper:

* :func:`truncation_bits` — the number of most-significant bits ``m`` to keep
  so that the truncated query region retains a ``1 − ε`` volume fraction
  (Lemma 3.2 uses ``m ≥ log2(2d/ε)``).
* :func:`level_census` — the per-level cube counts ``N_i`` of the greedy
  (minimum) decomposition of an extremal rectangle, computed analytically from
  Lemma 3.5 without enumerating cubes.
* :func:`cubes_in_class` — lazy enumeration of the standard cubes of level
  class ``D_i``; the classes are exactly the difference regions
  ``R(S_i(ℓ)) − R(S_{i+1}(ℓ))`` characterised by Lemma 3.4.
* :func:`greedy_decomposition` — all cubes of the minimum decomposition of an
  extremal rectangle, largest first (the order the search algorithm uses).
* :func:`decompose_rectangle` — minimum standard-cube decomposition of an
  *arbitrary* rectangle via maximal-cube (quadtree) recursion; used for
  general regions such as the Figure 1 example and as a testing oracle.

The enumeration in :func:`cubes_in_class` is equivalent to the paper's
Appendix A pseudocode (``EnumRectangles`` + ``CompKeys``); a faithful
transliteration of that pseudocode is the test suite's reference
(``tests/core/appendix_a.py``), and ``tests/core/test_appendix_a.py`` checks
that both produce identical cube/key sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from ..geometry.bits import (
    bit_at,
    bit_length,
    ceil_log2,
    spread_bits,
    suffix_from,
    suffix_vector,
)
from ..geometry.rect import ExtremalRectangle, Rectangle, StandardCube
from ..geometry.universe import Universe

__all__ = [
    "truncation_bits",
    "LevelClass",
    "level_census",
    "count_cubes_extremal",
    "cubes_in_class",
    "zorder_class_keys",
    "greedy_decomposition",
    "decompose_rectangle",
    "cumulative_volume_at_level",
]


def truncation_bits(dims: int, epsilon: float) -> int:
    """Return ``m = ⌈log2(2d/ε)⌉``: the MSB count that guarantees ``1 − ε`` coverage.

    Lemma 3.2: truncating every side of ``R(ℓ)`` to its ``m`` most significant
    bits with ``m ≥ log2(2d/ε)`` keeps at least a ``1 − ε`` fraction of the
    volume of ``R(ℓ)``.

    >>> truncation_bits(4, 0.05)
    8
    """
    if dims <= 0:
        raise ValueError(f"dims must be positive, got {dims}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie strictly between 0 and 1, got {epsilon}")
    return max(1, ceil_log2(math.ceil(2 * dims / epsilon)))


@dataclass(frozen=True)
class LevelClass:
    """Summary of one non-empty class ``D_i`` of the greedy decomposition.

    Attributes
    ----------
    bit_index:
        The class index ``i``; cubes in this class have side ``2^i``.
    cube_side:
        ``2^i``.
    num_cubes:
        ``N_i = |D_i|`` from Lemma 3.5.
    cube_volume:
        ``2^{i·d}`` — volume of each cube in the class.
    cumulative_volume:
        Volume of ``R(S_i(ℓ))`` — the region covered once this class and all
        larger classes have been searched (Lemma 3.4 part 2).
    """

    bit_index: int
    cube_side: int
    num_cubes: int
    cube_volume: int
    cumulative_volume: int


def _product(values: Sequence[int]) -> int:
    result = 1
    for v in values:
        result *= v
    return result


def cumulative_volume_at_level(lengths: Sequence[int], bit_index: int) -> int:
    """Return ``vol(R(S_i(ℓ)))``: the volume covered by classes ``D_j`` with ``j ≥ i``."""
    return _product(suffix_vector(lengths, bit_index))


def level_census(extremal: ExtremalRectangle) -> List[LevelClass]:
    """Return the non-empty level classes of the greedy decomposition, largest cubes first.

    Uses Lemma 3.4 (which classes are non-empty and what region they occupy)
    and Lemma 3.5 (how many cubes each class contains); nothing is enumerated.
    """
    lengths = extremal.lengths
    dims = extremal.dims
    min_bits = min(bit_length(v) for v in lengths)
    classes: List[LevelClass] = []
    for i in range(min_bits - 1, -1, -1):
        if not any(bit_at(v, i) for v in lengths):
            continue
        upper = _product(suffix_vector(lengths, i))
        lower = _product(suffix_vector(lengths, i + 1))
        cube_volume = 1 << (i * dims)
        num_cubes = (upper - lower) // cube_volume
        classes.append(
            LevelClass(
                bit_index=i,
                cube_side=1 << i,
                num_cubes=num_cubes,
                cube_volume=cube_volume,
                cumulative_volume=upper,
            )
        )
    return classes


def count_cubes_extremal(extremal: ExtremalRectangle) -> int:
    """Return ``cubes(R(ℓ))``: the size of the minimum standard-cube partition."""
    return sum(cls.num_cubes for cls in level_census(extremal))


def cubes_in_class(extremal: ExtremalRectangle, bit_index: int) -> Iterator[StandardCube]:
    """Lazily enumerate the standard cubes of class ``D_i`` (side ``2^i``).

    The class occupies ``R(S_i(ℓ)) − R(S_{i+1}(ℓ))`` (Lemma 3.4).  That
    difference region is decomposed into at most ``d`` disjoint boxes — one per
    "pivot" dimension whose bit ``i`` is set — and each box is an axis-aligned
    grid of side-``2^i`` cubes, yielded in grid order.
    """
    universe = extremal.universe
    lengths = extremal.lengths
    dims = extremal.dims
    side = universe.side
    cube_side = 1 << bit_index

    for pivot in range(dims):
        if not bit_at(lengths[pivot], bit_index):
            continue
        # Extent of the box along each dimension, as [low, length-in-cubes].
        box_low: List[int] = []
        box_cube_counts: List[int] = []
        empty = False
        for dim in range(dims):
            if dim == pivot:
                low = side - suffix_from(lengths[dim], bit_index)
                count = 1
            elif dim < pivot:
                extent = suffix_from(lengths[dim], bit_index + 1)
                if extent == 0:
                    empty = True
                    break
                low = side - extent
                count = extent >> bit_index
            else:
                extent = suffix_from(lengths[dim], bit_index)
                low = side - extent
                count = extent >> bit_index
            box_low.append(low)
            box_cube_counts.append(count)
        if empty:
            continue
        for offsets in itertools.product(*(range(c) for c in box_cube_counts)):
            low_corner = tuple(
                box_low[dim] + offsets[dim] * cube_side for dim in range(dims)
            )
            yield StandardCube(universe, low_corner, cube_side)


def zorder_class_keys(extremal: ExtremalRectangle, bit_index: int, count: int) -> List[int]:
    """Lowest Z-curve key of each of the first ``count`` cubes of class ``D_i``.

    The cubes come in :func:`cubes_in_class` order and each spans
    ``2^{d·i}`` keys, so ``(key, key + 2^{d·i} − 1)`` is its
    ``ZOrderCurve.cube_key_range``.  Only the requested prefix of the class's
    cube grid is generated: per box, each dimension contributes just as many
    cube coordinates as ``count`` can reach (a bit-dilated counter steps
    through them already in key position) and list comprehensions OR the
    dimensions together.  The hot path of building a dominance plan; other
    curves take the generic cube path the equivalence tests compare against.
    """
    lengths = extremal.lengths
    dims = extremal.dims
    side = extremal.universe.side
    low_bits = dims * bit_index  # key bits spanned by the cells inside one cube
    # One bit per level of the cube grid, ``dims`` apart: where the bits of a
    # single cube coordinate land in a key prefix.
    dilated = sum(1 << (level * dims) for level in range(extremal.universe.order - bit_index))

    keys: List[int] = []
    for pivot in range(dims):
        want = count - len(keys)
        if want <= 0:
            break
        if not bit_at(lengths[pivot], bit_index):
            continue
        # Extent of the box along each dimension, as (first cube coordinate,
        # length in cubes) at the cube grid of this level.
        box: List[Tuple[int, int]] = []
        for dim in range(dims):
            if dim == pivot:
                box.append(((side - suffix_from(lengths[dim], bit_index)) >> bit_index, 1))
            else:
                extent = suffix_from(lengths[dim], bit_index + 1 if dim < pivot else bit_index)
                box.append(((side - extent) >> bit_index, extent >> bit_index))
        if any(cubes == 0 for _, cubes in box):
            continue
        # Grid order varies the last dimension fastest, so a prefix of ``want``
        # cubes uses, per dimension from the last, only as many coordinates
        # as the dimensions after it leave room for.
        used: List[int] = []
        size = 1
        for _, cubes in reversed(box):
            used.append(min(cubes, -(-want // size)))
            size *= used[-1]
        used.reverse()
        # Dimensions pinned to their first coordinate fold into one prefix
        # before the others multiply the list out.
        pinned = [dim for dim in range(dims) if used[dim] == 1]
        combined = [0]
        for dim in pinned + [dim for dim in reversed(range(dims)) if used[dim] > 1]:
            # Within each key bit group dimension 0 occupies the most
            # significant position, hence the (dims − 1 − dim) shift.
            shift = low_bits + dims - 1 - dim
            mask = dilated << shift
            part = spread_bits(box[dim][0], dims, shift)
            parts = []
            for _ in range(used[dim]):
                parts.append(part)
                part = ((part | ~mask) + 1) & mask  # dilated increment
            combined = [part | rest for part in parts for rest in combined]
        keys.extend(combined[:want])
    return keys


def greedy_decomposition(extremal: ExtremalRectangle) -> List[StandardCube]:
    """Return the minimum standard-cube partition of ``R(ℓ)``, largest cubes first.

    This materialises every cube and is therefore only appropriate when the
    exhaustive decomposition is affordable (its size is what Theorem 4.1 lower
    bounds).
    """
    return [
        cube
        for cls in level_census(extremal)
        for cube in cubes_in_class(extremal, cls.bit_index)
    ]


def decompose_rectangle(universe: Universe, rect: Rectangle) -> List[StandardCube]:
    """Return the minimum standard-cube partition of an arbitrary rectangle.

    The partition consists of the *maximal* standard cubes contained in the
    rectangle: recursion starts from the whole universe and splits any cube
    that straddles the rectangle boundary.  Because distinct standard cubes
    are either nested or disjoint (Lemma 2.1), the maximal contained cubes are
    pairwise disjoint and any other standard-cube partition refines them, so
    this partition is minimum — the same optimum the paper's greedy algorithm
    (Lemma 3.3) attains.

    The recursion works on integer intervals: per dimension each half of a
    straddling cube is classified once as disjoint from, partially inside or
    fully inside the rectangle's range, children with a disjoint half are
    never visited, and a :class:`StandardCube` is built only for the cubes
    that are emitted — unvalidated, since the recursion emits aligned cubes.
    """
    if rect.dims != universe.dims:
        raise ValueError(
            f"rectangle has {rect.dims} dimensions but the universe has {universe.dims}"
        )
    bounds = list(
        zip(universe.validate_point(rect.low), universe.validate_point(rect.high))
    )
    emitted: List[Tuple[int, Tuple[int, ...]]] = []

    def split(low: Tuple[int, ...], side: int) -> None:
        """Visit the children of a cube that meets the rectangle without lying inside it."""
        half = side >> 1
        # Per dimension, the (child low, fully inside) pairs of the halves
        # that meet the rectangle's range; a unit half that meets it is inside.
        halves = []
        for x, (lo, hi) in zip(low, bounds):
            mid = x + half
            options = []
            if lo < mid:
                options.append((x, lo <= x and mid - 1 <= hi))
            if hi >= mid:
                options.append((mid, lo <= mid and mid + half - 1 <= hi))
            halves.append(options)
        for child in itertools.product(*halves):
            child_low = tuple([x for x, _ in child])
            if all([inside for _, inside in child]):
                emitted.append((-half, child_low))
            else:
                split(child_low, half)

    origin = (0,) * universe.dims
    if all(lo == 0 and hi == universe.max_coordinate for lo, hi in bounds):
        emitted.append((-universe.side, origin))
    else:
        split(origin, universe.side)
    emitted.sort()
    # Aligned and inside the universe by construction: every low corner is a
    # sum of halvings of the universe side, so the validating constructor
    # (which the tests still compare against) would only re-derive that.
    trusted = StandardCube._trusted
    return [trusted(universe, low, -neg_side) for neg_side, low in emitted]
