"""Faithful transliteration of the paper's Appendix A key-enumeration algorithm.

Section 5 of the paper sketches how to compute the Z-curve keys of the
standard cubes produced by the greedy decomposition of an extremal query
rectangle, one level class ``D_i`` at a time.  Appendix A gives pseudocode in
three routines:

* *Algorithm 1* — the driver: for each dimension ``j`` whose side length has
  bit ``i`` set, call ``EnumRectangles`` with ``j`` as the pivot dimension.
* *Algorithm 3* — ``EnumRectangles``: enumerate the axis-aligned rectangles
  that tile the space occupied by ``D_i``.  A rectangle is described by a
  vector ``P`` which records, per dimension, the index of the set bit of the
  side length that the rectangle "consumes"; the pivot dimension consumes bit
  ``i`` exactly, dimensions before the pivot consume bits ``> i``, dimensions
  after it consume bits ``≥ i``.  (The asymmetry makes the rectangles
  disjoint.)
* *Algorithm 2* — ``CompKeys``: for a rectangle ``P``, enumerate the cube
  coordinates ``Q`` of every side-``2^i`` standard cube it contains using the
  paper's Equation 1 (bits above ``P_x`` are the complement of the side
  length's bits, bit ``P_x`` is one, bits between ``i`` and ``P_x`` are free),
  then interleave the bits of ``Q`` into a Z-curve key.

The production search path uses the equivalent but vectorised enumeration in
:mod:`repro.core.decomposition`; this module is the algorithm exactly as
published, kept beside the tests as the reference that enumeration is
checked against (``test_appendix_a.py``).
"""

from __future__ import annotations

from typing import Iterator, List, Set

from repro.geometry.bits import bit_at, bit_length, interleave_bits
from repro.geometry.rect import ExtremalRectangle

__all__ = ["enumerate_cube_keys", "enumerate_all_cube_keys"]


def enumerate_cube_keys(extremal: ExtremalRectangle, bit_index: int) -> Set[int]:
    """Return the Z-curve key prefixes of every standard cube in class ``D_i``.

    Each returned key is the ``d·(k−i)``-bit prefix shared by the cells of the
    cube — the quantity the SFC array is probed with (after shifting by the
    ``d·i`` within-cube bits).
    """
    lengths = extremal.lengths
    dims = extremal.dims
    order = extremal.universe.order
    keys: Set[int] = set()

    # Algorithm 1: choose the pivot dimension (1-based ``s`` in the paper).
    for pivot in range(dims):
        if bit_at(lengths[pivot], bit_index):
            partial: List[int] = [-1] * dims
            _enum_rectangles(
                lengths, order, bit_index, partial, pivot, 0, keys, dims
            )
    return keys


def _enum_rectangles(
    lengths,
    order: int,
    bit_index: int,
    chosen_bits: List[int],
    pivot: int,
    dim: int,
    keys: Set[int],
    dims: int,
) -> None:
    """Algorithm 3 (``EnumRectangles``): fill ``chosen_bits`` dimension by dimension."""
    if dim == dims:
        _comp_keys(lengths, order, bit_index, chosen_bits, keys, dims)
        return
    if dim > pivot:
        candidate_bits = range(bit_length(lengths[dim]) - 1, bit_index - 1, -1)
    elif dim < pivot:
        candidate_bits = range(bit_length(lengths[dim]) - 1, bit_index, -1)
    else:
        chosen_bits[dim] = bit_index
        _enum_rectangles(lengths, order, bit_index, chosen_bits, pivot, dim + 1, keys, dims)
        chosen_bits[dim] = -1
        return
    for candidate in candidate_bits:
        if bit_at(lengths[dim], candidate):
            chosen_bits[dim] = candidate
            _enum_rectangles(
                lengths, order, bit_index, chosen_bits, pivot, dim + 1, keys, dims
            )
            chosen_bits[dim] = -1


def _comp_keys(
    lengths,
    order: int,
    bit_index: int,
    chosen_bits: List[int],
    keys: Set[int],
    dims: int,
) -> None:
    """Algorithm 2 (``CompKeys``): emit the key of every cube in the rectangle ``P``.

    Equation 1 of the paper determines the cube coordinate along each
    dimension: bits above the chosen bit are the complement of the side
    length's bits, the chosen bit itself is one, and bits between ``i`` and
    the chosen bit are free.  Enumerating the free bits enumerates the cubes.
    """
    cube_bits = order - bit_index  # bits per coordinate of a level-(k−i) cube

    def coordinate_options(dim: int) -> Iterator[int]:
        p_x = chosen_bits[dim]
        length = lengths[dim]
        if p_x >= order:
            # The side length is the full universe extent (ℓ = 2^k): the chosen
            # bit lies above the coordinate width, so every cube-coordinate bit
            # is free and the rectangle spans the whole dimension.
            free_count = order - bit_index
            yield from range(1 << free_count)
            return
        fixed = 0
        for y in range(order - 1, p_x, -1):
            fixed = (fixed << 1) | (1 - bit_at(length, y))
        fixed = (fixed << 1) | 1  # bit y == P_x is always one
        free_count = p_x - bit_index
        for free in range(1 << free_count):
            # Coordinate of the cube in the level grid: drop the lowest
            # ``bit_index`` bits (they index cells inside the cube).
            yield (fixed << free_count) | free

    def recurse(dim: int, coords: List[int]) -> None:
        if dim == dims:
            keys.add(interleave_bits(coords, cube_bits))
            return
        for value in coordinate_options(dim):
            coords.append(value)
            recurse(dim + 1, coords)
            coords.pop()

    recurse(0, [])


def enumerate_all_cube_keys(extremal: ExtremalRectangle) -> List[Set[int]]:
    """Return the key sets of every non-empty class ``D_i``, largest cubes first."""
    lengths = extremal.lengths
    min_bits = min(bit_length(v) for v in lengths)
    result: List[Set[int]] = []
    for i in range(min_bits - 1, -1, -1):
        if any(bit_at(v, i) for v in lengths):
            result.append(enumerate_cube_keys(extremal, i))
    return result
