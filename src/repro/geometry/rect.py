"""Rectangles, extremal rectangles and standard cubes on the discrete universe.

Terminology follows the paper:

* A *rectangle* is an axis-aligned box of cells, given by inclusive integer
  bounds per dimension.
* An *extremal rectangle* ``R(ℓ)`` has one vertex pinned at the universe's top
  corner ``(2^k − 1, ..., 2^k − 1)``; it is fully specified by its side-length
  vector ``ℓ``.  Point-dominance query regions are extremal rectangles.
* A *standard cube* at level ``i`` is one of the cubes produced by ``i`` rounds
  of recursive bisection of the universe; its side is ``2^{k−i}`` and its low
  corner is aligned to a multiple of its side.  Standard cubes are exactly the
  regions that map to a single contiguous *run* of keys on a recursive SFC
  (Fact 2.1 in the paper).
* The *aspect ratio* ``α`` of a rectangle is ``b(ℓ_max) − b(ℓ_min)``, the
  difference in bit lengths between the longest and shortest sides (the
  paper's Section 1.1 definition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from .bits import bit_length, truncate_vector
from .universe import Universe

__all__ = ["Rectangle", "ExtremalRectangle", "StandardCube", "aspect_ratio"]


def aspect_ratio(lengths: Sequence[int]) -> int:
    """Return the paper's aspect ratio ``α = b(ℓ_max) − b(ℓ_min)`` of a side-length vector.

    The aspect ratio is 0 when all sides have the same bit length (roughly
    cube-like regions) and grows as the sides become more unequal.

    >>> aspect_ratio((8, 8, 8))
    0
    >>> aspect_ratio((1, 256))
    8
    """
    if not lengths:
        raise ValueError("aspect ratio of an empty length vector is undefined")
    bls = [bit_length(int(v)) for v in lengths]
    if min(bls) == 0:
        raise ValueError("side lengths must be positive")
    return max(bls) - min(bls)


@dataclass(frozen=True)
class Rectangle:
    """An axis-aligned box of cells with inclusive integer bounds.

    ``low[i] <= high[i]`` for every dimension; the rectangle contains every
    cell ``p`` with ``low[i] <= p[i] <= high[i]``.
    """

    low: Tuple[int, ...]
    high: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.low) != len(self.high):
            raise ValueError(
                f"low corner has {len(self.low)} coordinates but high corner has {len(self.high)}"
            )
        if not self.low:
            raise ValueError("a rectangle needs at least one dimension")
        for lo, hi in zip(self.low, self.high):
            if lo > hi:
                raise ValueError(f"low bound {lo} exceeds high bound {hi}")

    # ----------------------------------------------------------------- basics
    @property
    def dims(self) -> int:
        """Number of dimensions."""
        return len(self.low)

    @property
    def side_lengths(self) -> Tuple[int, ...]:
        """Number of cells along each dimension."""
        return tuple(hi - lo + 1 for lo, hi in zip(self.low, self.high))

    @property
    def volume(self) -> int:
        """Number of cells contained in the rectangle."""
        vol = 1
        for s in self.side_lengths:
            vol *= s
        return vol

    @property
    def aspect_ratio(self) -> int:
        """The paper's bit-length aspect ratio ``α`` of this rectangle."""
        return aspect_ratio(self.side_lengths)

    # ------------------------------------------------------------ set algebra
    def contains_point(self, point: Sequence[int]) -> bool:
        """Return True when ``point`` lies inside this rectangle."""
        if len(point) != self.dims:
            return False
        return all(lo <= x <= hi for x, lo, hi in zip(point, self.low, self.high))

    # --------------------------------------------------------------- iteration
    def cells(self) -> Iterator[Tuple[int, ...]]:
        """Iterate over every cell in the rectangle (use only for small regions)."""
        def recurse(dim: int, prefix: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
            if dim == self.dims:
                yield prefix
                return
            for x in range(self.low[dim], self.high[dim] + 1):
                yield from recurse(dim + 1, prefix + (x,))

        return recurse(0, ())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"[{lo},{hi}]" for lo, hi in zip(self.low, self.high))
        return f"Rectangle({parts})"


@dataclass(frozen=True)
class ExtremalRectangle:
    """The paper's ``R(ℓ)``: a rectangle whose high corner is the universe top corner.

    The rectangle spans ``[2^k − ℓ_i, 2^k − 1]`` along dimension ``i``; it is
    fully described by the universe and the side-length vector ``ℓ`` with
    ``1 ≤ ℓ_i ≤ 2^k``.
    """

    universe: Universe
    lengths: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lengths", self.universe.validate_lengths(self.lengths))

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_query_point(cls, universe: Universe, point: Sequence[int]) -> "ExtremalRectangle":
        """Build the dominance region ``([x_1, max], ..., [x_d, max])`` of a query point."""
        pt = universe.validate_point(point)
        lengths = tuple(universe.max_coordinate - x + 1 for x in pt)
        return cls(universe, lengths)

    # ----------------------------------------------------------------- basics
    @property
    def dims(self) -> int:
        return self.universe.dims

    @property
    def low(self) -> Tuple[int, ...]:
        """Low corner ``(2^k − ℓ_1, ..., 2^k − ℓ_d)``."""
        side = self.universe.side
        return tuple(side - v for v in self.lengths)

    @property
    def high(self) -> Tuple[int, ...]:
        """High corner — always the universe's top corner."""
        return self.universe.top_corner

    @property
    def volume(self) -> int:
        vol = 1
        for v in self.lengths:
            vol *= v
        return vol

    @property
    def aspect_ratio(self) -> int:
        """The paper's ``α = b(ℓ_max) − b(ℓ_min)``."""
        return aspect_ratio(self.lengths)

    def as_rectangle(self) -> Rectangle:
        """View this extremal rectangle as a plain :class:`Rectangle`."""
        return Rectangle(self.low, self.high)

    def contains_point(self, point: Sequence[int]) -> bool:
        return self.as_rectangle().contains_point(point)

    # ------------------------------------------------------------- truncation
    def truncated(self, m: int) -> "ExtremalRectangle":
        """Return the paper's ``R^m(ℓ) = R(t(ℓ, m))``.

        Each side length is truncated to its ``m`` most significant bits,
        producing a smaller extremal rectangle nested inside this one
        (Lemma 3.2 guarantees that with ``m ≥ log2(2d/ε)`` at least a
        ``1 − ε`` fraction of the volume is retained).
        """
        return ExtremalRectangle(self.universe, truncate_vector(self.lengths, m))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExtremalRectangle(ℓ={self.lengths}, α={self.aspect_ratio})"


@dataclass(frozen=True)
class StandardCube:
    """A standard cube of the recursive partitioning of the universe.

    A standard cube at *level* ``i`` (``0 ≤ i ≤ k``) has side ``2^{k−i}`` and a
    low corner whose coordinates are multiples of its side.  Level ``k`` cubes
    are individual cells; the level-0 cube is the whole universe.

    The reproduction stores cubes by their low corner and side length because
    that is what the greedy decomposition and the key-enumeration algorithm
    manipulate; the SFC-specific *key range* of a cube is computed by the SFC
    classes in :mod:`repro.sfc`.
    """

    universe: Universe
    low: Tuple[int, ...]
    side: int

    def __post_init__(self) -> None:
        if self.side <= 0 or (self.side & (self.side - 1)) != 0:
            raise ValueError(f"standard cube side must be a power of two, got {self.side}")
        if self.side > self.universe.side:
            raise ValueError(
                f"standard cube side {self.side} exceeds the universe side {self.universe.side}"
            )
        low = self.universe.validate_point(self.low)
        object.__setattr__(self, "low", low)
        for x in low:
            if x % self.side != 0:
                raise ValueError(
                    f"standard cube low corner {low} is not aligned to side {self.side}"
                )

    @classmethod
    def _trusted(cls, universe: Universe, low: Tuple[int, ...], side: int) -> "StandardCube":
        """Build a cube without validating it.

        For producers whose construction already guarantees what
        ``__post_init__`` checks — a power-of-two side within the universe
        and an aligned integer low corner inside it (the quadtree recursion
        of :func:`~repro.core.decomposition.decompose_rectangle`).  Anything
        built from outside input goes through ``StandardCube(...)``.
        """
        cube = object.__new__(cls)
        object.__setattr__(cube, "universe", universe)
        object.__setattr__(cube, "low", low)
        object.__setattr__(cube, "side", side)
        return cube

    @property
    def dims(self) -> int:
        return self.universe.dims

    @property
    def level(self) -> int:
        """Recursion level of the cube (0 = whole universe, k = single cell)."""
        return self.universe.level_of_cube_side(self.side)

    @property
    def high(self) -> Tuple[int, ...]:
        return tuple(x + self.side - 1 for x in self.low)

    @property
    def volume(self) -> int:
        return self.side ** self.dims

    def as_rectangle(self) -> Rectangle:
        return Rectangle(self.low, self.high)

    def contains_point(self, point: Sequence[int]) -> bool:
        return all(lo <= x <= lo + self.side - 1 for x, lo in zip(point, self.low))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"StandardCube(low={self.low}, side={self.side})"
