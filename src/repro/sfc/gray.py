"""The Gray-code space filling curve.

Faloutsos (1986, 1988) proposed ordering multi-attribute data by interpreting
the bit-interleaved coordinates of a cell as a binary-reflected Gray codeword
and using the codeword's *rank* in the Gray sequence as the key.  Consecutive
keys then differ in exactly one interleaved bit, which improves locality over
the plain Z order for partial-match queries.

Because the rank of a Gray codeword is a prefix-preserving function of the
codeword (bit ``j`` of the rank is the XOR of bits ``j..msb`` of the
codeword), cells sharing the top ``d·i`` interleaved bits — i.e. the cells of
a level-``i`` standard cube — also share the top ``d·i`` bits of their Gray
rank.  The recursive-partitioning prefix property (Fact 2.1) therefore holds
and the generic :meth:`SpaceFillingCurve.cube_key_range` applies unchanged.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..geometry.bits import (
    deinterleave_bits,
    gray_decode,
    gray_encode,
    interleave_bits,
    spread_bits,
)
from .base import SpaceFillingCurve

__all__ = ["GrayCodeCurve"]


class GrayCodeCurve(SpaceFillingCurve):
    """Gray-code curve over a :class:`Universe`."""

    name = "gray-code"
    kind = "gray"

    def key(self, point: Sequence[int]) -> int:
        """Key of a cell: Gray rank of its bit-interleaved coordinates."""
        pt = self.universe.validate_point(point)
        interleaved = interleave_bits(pt, self.universe.order)
        return gray_decode(interleaved)

    def point(self, key: int) -> Tuple[int, ...]:
        """Inverse of :meth:`key`."""
        if not 0 <= key <= self.universe.max_key:
            raise ValueError(f"key {key} is outside [0, {self.universe.max_key}]")
        interleaved = gray_encode(key)
        return deinterleave_bits(interleaved, self.universe.dims, self.universe.order)

    def keys(self, points: Sequence[Sequence[int]]) -> List[int]:
        """Keys of a batch of cells; identical to ``[self.key(p) for p in points]``.

        Reuses the Z curve's trick — each distinct coordinate value is
        Morton-spread at most once per dimension — and Gray-decodes each
        interleaved word.
        """
        universe = self.universe
        dims = universe.dims
        caches: List[dict] = [{} for _ in range(dims)]
        keys: List[int] = []
        for point in points:
            pt = universe.validate_point(point)
            interleaved = 0
            for dim, coordinate in enumerate(pt):
                spread = caches[dim].get(coordinate)
                if spread is None:
                    spread = spread_bits(coordinate, dims, dims - 1 - dim)
                    caches[dim][coordinate] = spread
                interleaved |= spread
            keys.append(gray_decode(interleaved))
        return keys
