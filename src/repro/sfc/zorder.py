"""The Z-order (Morton) space filling curve.

The Z curve (Morton 1966) assigns a cell the key obtained by interleaving the
bits of its coordinates, most significant bit first, dimension 1 first within
each bit position.  It is the curve analysed in the paper's upper and lower
bounds and the one used by the approximate covering algorithm of Section 5.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..geometry.bits import deinterleave_bits, interleave_bits, spread_bits
from .base import SpaceFillingCurve

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
        ``[self.key(p) for p in points]``.  The kernel (and numpy with it) is
        imported on the first batch, not with the curve.
        """
        from . import vectorized

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
