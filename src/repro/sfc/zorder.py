"""The Z-order (Morton) space filling curve.

The Z curve (Morton 1966) assigns a cell the key obtained by interleaving the
bits of its coordinates, most significant bit first, dimension 1 first within
each bit position.  It is the curve analysed in the paper's upper and lower
bounds and the one used by the approximate covering algorithm of Section 5.

Besides the cell bijection, this module exposes Z-specific helpers that the
key-enumeration algorithm (Appendix A of the paper) uses directly:
``cube_key`` computes the key of a standard cube from its *cube coordinates*
(the coordinates of the cube within the level-``i`` grid), matching the
paper's example in which square ``a`` at coordinates ``(010, 011)`` of the
level-3 grid has key ``001101 = 13``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..geometry.bits import deinterleave_bits, interleave_bits, spread_bits
from ..geometry.rect import StandardCube
from ..geometry.universe import Universe
from . import vectorized
from .base import KeyRange, SpaceFillingCurve

__all__ = ["ZOrderCurve"]


class ZOrderCurve(SpaceFillingCurve):
    """Morton / Z-order curve over a :class:`Universe`."""

    name = "z-order"
    kind = "zorder"

    # ------------------------------------------------------------- bijection
    def key(self, point: Sequence[int]) -> int:
        """Key of a cell: bit-interleaving of its coordinates.

        The point is checked once: its length here, and each coordinate's
        range by :func:`interleave_bits` (``ValueError`` for a negative one or
        one that does not fit ``order`` bits).
        """
        universe = self.universe
        pt = [int(x) for x in point]
        if len(pt) != universe.dims:
            raise ValueError(
                f"point {tuple(pt)} has {len(pt)} coordinates but the universe "
                f"has {universe.dims} dimensions"
            )
        return interleave_bits(pt, universe.order)

    def point(self, key: int) -> Tuple[int, ...]:
        """Inverse of :meth:`key`."""
        if not 0 <= key <= self.universe.max_key:
            raise ValueError(f"key {key} is outside [0, {self.universe.max_key}]")
        return deinterleave_bits(key, self.universe.dims, self.universe.order)

    def keys(self, points: Sequence[Sequence[int]]) -> List[int]:
        """Keys of a batch of cells, amortising the bit-interleaving work.

        When every key fits a machine word the whole
        batch is interleaved through the table-driven kernel in
        :mod:`repro.sfc.vectorized`.  Otherwise each distinct coordinate value
        is Morton-spread at most once per dimension across the batch, so
        batches with recurring coordinate values pay far less than per-cell
        :meth:`key` calls.  Results are identical to
        ``[self.key(p) for p in points]``.
        """
        universe = self.universe
        fast = vectorized.zorder_keys(
            points, universe.dims, universe.order, universe.max_coordinate
        )
        if fast is not None:
            return fast
        dims = self.universe.dims
        caches: List[dict] = [{} for _ in range(dims)]
        keys: List[int] = []
        for point in points:
            pt = self.universe.validate_point(point)
            key = 0
            for dim, coordinate in enumerate(pt):
                spread = caches[dim].get(coordinate)
                if spread is None:
                    spread = spread_bits(coordinate, dims, dims - 1 - dim)
                    caches[dim][coordinate] = spread
                key |= spread
            keys.append(key)
        return keys

    # ----------------------------------------------------- standard-cube keys
    def cube_key(self, cube_coords: Sequence[int], level: int) -> int:
        """Key (level-local) of a standard cube given its coordinates in the level grid.

        At level ``i`` the universe is a ``2^i × ... × 2^i`` grid of standard
        cubes; ``cube_coords`` locates one of them.  The returned key is the
        ``d·i``-bit interleaving of those coordinates — the *prefix* shared by
        the keys of all cells inside the cube.
        """
        if not 0 <= level <= self.universe.order:
            raise ValueError(f"level must lie in [0, {self.universe.order}], got {level}")
        coords = tuple(int(c) for c in cube_coords)
        if len(coords) != self.universe.dims:
            raise ValueError(
                f"cube coordinates {coords} have {len(coords)} entries, expected {self.universe.dims}"
            )
        for c in coords:
            if not 0 <= c < (1 << level):
                raise ValueError(f"cube coordinate {c} is outside [0, {(1 << level) - 1}]")
        return interleave_bits(coords, level)

    def cube_key_range_from_coords(self, cube_coords: Sequence[int], level: int) -> KeyRange:
        """Inclusive cell-key range of the standard cube at ``cube_coords`` / ``level``."""
        prefix = self.cube_key(cube_coords, level)
        low_bits = self.universe.dims * (self.universe.order - level)
        lo = prefix << low_bits
        return (lo, lo + (1 << low_bits) - 1)

    def cube_of_cell(self, point: Sequence[int], level: int) -> StandardCube:
        """Return the level-``level`` standard cube containing ``point``."""
        pt = self.universe.validate_point(point)
        side = self.universe.cube_side_at_level(level)
        low = tuple((x // side) * side for x in pt)
        return StandardCube(self.universe, low, side)

    # ------------------------------------------------------------ conversions
    def cube_coords(self, cube: StandardCube) -> Tuple[int, ...]:
        """Return the coordinates of ``cube`` within its level grid."""
        return tuple(x // cube.side for x in cube.low)

    def cube_from_coords(self, cube_coords: Sequence[int], level: int) -> StandardCube:
        """Build the :class:`StandardCube` at ``cube_coords`` within the level grid."""
        side = self.universe.cube_side_at_level(level)
        low = tuple(int(c) * side for c in cube_coords)
        return StandardCube(self.universe, low, side)


def default_zorder(dims: int, order: int) -> ZOrderCurve:
    """Convenience constructor: a Z curve over a fresh ``Universe(dims, order)``."""
    return ZOrderCurve(Universe(dims=dims, order=order))
