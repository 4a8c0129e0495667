"""The discrete universe on which space filling curves are defined.

The paper considers a ``d``-dimensional universe ``2^k × 2^k × ... × 2^k``.
Each element ``p = (x_1, ..., x_d)`` with ``x_i ∈ [0, 2^k − 1]`` is a *cell*.
A space filling curve imposes a linear order on all ``2^{kd}`` cells.

:class:`Universe` is a tiny immutable value object holding ``d`` (the number
of dimensions) and ``k`` (the bit resolution per dimension).  Both the SFC
implementations and the decomposition algorithms take a universe so that key
widths, cell validation and standard-cube arithmetic stay consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

__all__ = ["Universe"]


@dataclass(frozen=True)
class Universe:
    """A ``d``-dimensional grid of side ``2^k`` cells.

    Parameters
    ----------
    dims:
        Number of dimensions ``d``.  For subscription covering this is *twice*
        the number of subscription attributes (the Edelsbrunner–Overmars
        transform doubles the dimensionality).
    order:
        Bit resolution ``k``.  Each coordinate lies in ``[0, 2^k − 1]``.
    """

    dims: int
    order: int

    def __post_init__(self) -> None:
        if self.dims <= 0:
            raise ValueError(f"universe must have at least one dimension, got {self.dims}")
        if self.order <= 0:
            raise ValueError(f"universe order (bits per dimension) must be positive, got {self.order}")

    # ------------------------------------------------------------------ sizes
    @property
    def side(self) -> int:
        """Number of cells along each dimension (``2^k``)."""
        return 1 << self.order

    @property
    def max_coordinate(self) -> int:
        """Largest valid coordinate value (``2^k − 1``)."""
        return self.side - 1

    @property
    def num_cells(self) -> int:
        """Total number of cells in the universe (``2^{kd}``)."""
        return 1 << (self.order * self.dims)

    @property
    def max_key(self) -> int:
        """Largest valid SFC key (``2^{dk} − 1``)."""
        return self.num_cells - 1

    @property
    def top_corner(self) -> Tuple[int, ...]:
        """The corner cell ``(2^k − 1, ..., 2^k − 1)`` shared by every extremal rectangle."""
        return (self.max_coordinate,) * self.dims

    # ------------------------------------------------------------- validation
    def contains_point(self, point: Sequence[int]) -> bool:
        """Return True when ``point`` is a valid cell of this universe."""
        if len(point) != self.dims:
            return False
        return all(0 <= x <= self.max_coordinate for x in point)

    def validate_point(self, point: Sequence[int]) -> Tuple[int, ...]:
        """Return ``point`` as a tuple, raising ``ValueError`` if it is not a valid cell."""
        pt = tuple(int(x) for x in point)
        if len(pt) != self.dims:
            raise ValueError(
                f"point {pt} has {len(pt)} coordinates but the universe has {self.dims} dimensions"
            )
        for x in pt:
            if not 0 <= x <= self.max_coordinate:
                raise ValueError(
                    f"coordinate {x} is outside the universe range [0, {self.max_coordinate}]"
                )
        return pt

    def validate_lengths(self, lengths: Sequence[int]) -> Tuple[int, ...]:
        """Validate a vector of extremal-rectangle side lengths ``ℓ``.

        Each length must satisfy ``1 ≤ ℓ_i ≤ 2^k``.
        """
        vec = tuple(int(v) for v in lengths)
        if len(vec) != self.dims:
            raise ValueError(
                f"length vector {vec} has {len(vec)} entries but the universe has {self.dims} dimensions"
            )
        for v in vec:
            if not 1 <= v <= self.side:
                raise ValueError(f"side length {v} is outside the valid range [1, {self.side}]")
        return vec

    # ------------------------------------------------------- standard cubes
    def cube_side_at_level(self, level: int) -> int:
        """Side length of a standard cube at recursion ``level`` (``2^{k − level}``)."""
        if not 0 <= level <= self.order:
            raise ValueError(f"level must lie in [0, {self.order}], got {level}")
        return 1 << (self.order - level)

    def level_of_cube_side(self, side: int) -> int:
        """Inverse of :meth:`cube_side_at_level`; ``side`` must be a power of two ``≤ 2^k``."""
        if side <= 0 or side > self.side or (side & (side - 1)) != 0:
            raise ValueError(f"{side} is not a valid standard-cube side for order {self.order}")
        return self.order - (side.bit_length() - 1)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Universe(d={self.dims}, k={self.order}, side=2^{self.order})"
