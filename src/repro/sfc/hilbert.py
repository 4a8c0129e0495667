"""The Hilbert space filling curve.

Implemented from scratch using Skilling's transpose algorithm ("Programming
the Hilbert curve", AIP Conf. Proc. 707, 2004), which converts between cell
coordinates and the Hilbert index in ``O(d·k)`` bit operations without
recursion.  The Hilbert curve is built from the same recursive partitioning of
the universe as the Z curve, so Fact 2.1 applies: every standard cube is a
single run of Hilbert keys.  The paper uses the Hilbert curve in Figure 1 to
illustrate that different SFCs give different run counts for the same region
(two runs for the Hilbert curve versus three for the Z curve on the example
rectangle), and notes (citing Moon et al.) that Z and Hilbert performance is
within a constant factor for most indexing workloads.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..geometry.bits import interleave_bits, deinterleave_bits
from .base import SpaceFillingCurve

__all__ = ["HilbertCurve"]


class HilbertCurve(SpaceFillingCurve):
    """Hilbert curve over a :class:`Universe` (Skilling's algorithm)."""

    name = "hilbert"
    kind = "hilbert"

    # ------------------------------------------------------------- bijection
    def key(self, point: Sequence[int]) -> int:
        """Hilbert index of a cell."""
        pt = list(self.universe.validate_point(point))
        transpose = _axes_to_transpose(pt, self.universe.order)
        return interleave_bits(transpose, self.universe.order)

    def point(self, key: int) -> Tuple[int, ...]:
        """Inverse of :meth:`key`."""
        if not 0 <= key <= self.universe.max_key:
            raise ValueError(f"key {key} is outside [0, {self.universe.max_key}]")
        transpose = list(deinterleave_bits(key, self.universe.dims, self.universe.order))
        return tuple(_transpose_to_axes(transpose, self.universe.order))

    def keys(self, points: Sequence[Sequence[int]]) -> List[int]:
        """Keys of a batch of cells; identical to ``[self.key(p) for p in points]``.

        Memoises the transpose per distinct cell, so batches with recurring
        cells pay for each one once.
        """
        universe = self.universe
        cache: dict = {}
        keys: List[int] = []
        for point in points:
            pt = universe.validate_point(point)
            key = cache.get(pt)
            if key is None:
                transpose = _axes_to_transpose(list(pt), universe.order)
                key = interleave_bits(transpose, universe.order)
                cache[pt] = key
            keys.append(key)
        return keys


def _axes_to_transpose(x: List[int], bits: int) -> List[int]:
    """Convert cell coordinates to Skilling's transposed Hilbert representation.

    The input list is modified in place and returned.  Interleaving the bits
    of the result (dimension 0 most significant) yields the Hilbert index.
    """
    n = len(x)
    m = 1 << (bits - 1)

    # Inverse undo of the excess work done by the decoding direction.
    q = m
    while q > 1:
        p = q - 1
        for i in range(n):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1

    # Gray encode the result.
    for i in range(1, n):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[n - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(n):
        x[i] ^= t
    return x


def _transpose_to_axes(x: List[int], bits: int) -> List[int]:
    """Invert :func:`_axes_to_transpose` (Skilling's decoding direction)."""
    n = len(x)
    top = 2 << (bits - 1)

    # Gray decode by halving.
    t = x[n - 1] >> 1
    for i in range(n - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t

    # Undo excess work.
    q = 2
    while q != top:
        p = q - 1
        for i in range(n - 1, -1, -1):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q <<= 1
    return x
