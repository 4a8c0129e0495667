"""The discrete universe on which space filling curves are defined.

The paper considers a ``d``-dimensional universe ``2^k × 2^k × ... × 2^k``.
Each element ``p = (x_1, ..., x_d)`` with ``x_i ∈ [0, 2^k − 1]`` is a *cell*.
A space filling curve imposes a linear order on all ``2^{kd}`` cells.

:class:`Universe` is a tiny immutable value object holding ``d`` (the number
of dimensions) and ``k`` (the bit resolution per dimension).  Both the SFC
implementations and the decomposition algorithms take a universe so that key
widths, cell validation and standard-cube arithmetic stay consistent.

Beside it live the *packed* forms the exact rectangle tests compare: a cell
``P`` packs into one integer of ``d`` fields of ``k + 1`` bits (coordinate 0
in the most significant field), and a box ``[L, H]`` into the pair
``(L, H | G)``, where the *guard* ``G`` sets the top bit ``k`` of every field.
Then, for any ``d`` and ``k``,

* ``P`` lies in the box when ``((P | G) - L) & ((H | G) - P) & G == G``;
* a box ``R`` covers a box ``Q`` when
  ``((Q.L | G) - R.L) & ((R.H | G) - Q.H) & G == G``.

Every operand is below ``2^k`` in each field and every minuend carries its
field's guard bit, so no subtraction borrows across a field boundary: field
``i`` of a difference keeps its guard bit exactly when ``a_i >= b_i``, and the
test is all ``d`` comparisons at once, whatever ``d``.  A packed box carries
the guard on its high side already (``H | G``), so only its low side and the
other operand's ``H`` (``(H | G) ^ G``) are ever bare.

Fieldwise ``>=`` implies ``>=`` of the packed integers, so ``P >= L`` and
``H | G >= P | G`` (for covering, ``Q.L >= R.L`` and
``R.H | G >= Q.H | G``) are necessary conditions.  The sites that make the
test put these two comparisons first: they allocate nothing, where the
expression builds four integers, and since the first attribute sits in the
top field they reject what a first-attribute early exit would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

__all__ = ["Universe", "pack_box", "pack_point", "packed_guard", "unpack_box"]

#: A packed box: the packed low corner and the packed high corner with the
#: guard set, ``(L, H | G)``.
PackedBox = Tuple[int, int]


def packed_guard(dims: int, order: int) -> int:
    """The guard ``G`` of ``dims`` packed fields of ``order + 1`` bits: bit ``order`` of each.

    >>> bin(packed_guard(3, 2))
    '0b100100100'
    """
    width = order + 1
    return ((1 << (width * dims)) - 1) // ((1 << width) - 1) << order


def pack_point(values: Sequence[int], order: int) -> int:
    """Pack a cell's coordinates into fields of ``order + 1`` bits (coordinate 0 highest).

    Raises ``ValueError`` on a coordinate outside ``[0, 2^order − 1]``
    instead of letting it spill into a neighbouring field.

    >>> pack_point((5, 0, 3), 3) == 5 << 8 | 0 << 4 | 3
    True
    >>> pack_point((8,), 3)
    Traceback (most recent call last):
    ...
    ValueError: coordinate 8 is outside [0, 7]
    """
    top = 1 << order
    width = order + 1
    packed = 0
    for value in values:
        if not 0 <= value < top:
            raise ValueError(f"coordinate {value} is outside [0, {top - 1}]")
        packed = packed << width | value
    return packed


def pack_box(ranges: Sequence[Tuple[int, int]], order: int) -> PackedBox:
    """Pack per-coordinate ``(low, high)`` ranges into ``(L, H | G)``.

    Raises ``ValueError`` on a bound outside ``[0, 2^order − 1]``.  The
    module docstring's two tests, on 2 coordinates of order 3:

    >>> G = packed_guard(2, 3)
    >>> L, HG = pack_box(((2, 5), (0, 7)), 3)
    >>> P = pack_point((5, 7), 3)
    >>> ((P | G) - L) & (HG - P) & G == G
    True
    >>> P = pack_point((6, 7), 3)
    >>> ((P | G) - L) & (HG - P) & G == G
    False
    >>> QL, QHG = pack_box(((2, 4), (1, 7)), 3)
    >>> ((QL | G) - L) & (HG - (QHG ^ G)) & G == G
    True
    >>> ((L | G) - QL) & (QHG - (HG ^ G)) & G == G
    False
    """
    top = 1 << order
    width = order + 1
    lows = highs = 0
    for lo, hi in ranges:
        if not (0 <= lo < top and 0 <= hi < top):
            raise ValueError(f"range [{lo}, {hi}] is outside [0, {top - 1}]")
        lows = lows << width | lo
        highs = highs << width | hi | top
    return lows, highs


def unpack_box(box: PackedBox, dims: int, order: int) -> Tuple[Tuple[int, int], ...]:
    """The ``(low, high)`` ranges a :func:`pack_box` result was packed from.

    >>> unpack_box(pack_box(((2, 5), (0, 7)), 3), 2, 3)
    ((2, 5), (0, 7))
    """
    lows, highs = box
    mask = (1 << order) - 1
    width = order + 1
    return tuple(
        [
            ((lows >> shift) & mask, (highs >> shift) & mask)
            for shift in range(width * (dims - 1), -1, -width)
        ]
    )


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
