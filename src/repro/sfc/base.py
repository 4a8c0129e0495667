"""Abstract interface shared by all space filling curves in the reproduction.

The paper relies on a single structural property of SFCs (Fact 2.1): for any
curve built from a *recursive partitioning* of the universe — the Z curve, the
Hilbert curve and the Gray-code curve all qualify — every standard cube maps to
one contiguous segment ("run") of curve keys.  Concretely, all cells of a
standard cube at level ``i`` share the top ``d·i`` bits of their key, so a
cube's key range can be derived generically from the key of any one of its
cells.  :class:`SpaceFillingCurve` implements that derivation once;
subclasses only provide the cell ⇄ key bijection.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, List, Sequence, Tuple

from ..geometry.rect import Rectangle, StandardCube
from ..geometry.universe import Universe

__all__ = ["SpaceFillingCurve", "KeyRange"]

KeyRange = Tuple[int, int]


class SpaceFillingCurve(ABC):
    """A bijection between the cells of a :class:`Universe` and ``[0, 2^{dk} − 1]``.

    Subclasses implement :meth:`key` and :meth:`point`; everything else —
    standard-cube key ranges, run counting helpers, iteration in curve order —
    is provided generically, relying only on the recursive-partitioning prefix
    property (Fact 2.1 of the paper).
    """

    #: Human-readable curve name used in benchmark reports.
    name: str = "sfc"

    #: The curve's short name in tables and test ids (``"zorder"``,
    #: ``"hilbert"``, ``"gray"``).
    kind: str = "sfc"

    def __init__(self, universe: Universe) -> None:
        self.universe = universe

    # ------------------------------------------------------------- bijection
    @abstractmethod
    def key(self, point: Sequence[int]) -> int:
        """Return the curve key of the cell ``point``."""

    @abstractmethod
    def point(self, key: int) -> Tuple[int, ...]:
        """Return the cell with curve key ``key`` (inverse of :meth:`key`)."""

    def keys(self, points: Sequence[Sequence[int]]) -> List[int]:
        """Keys of a batch of cells; identical to ``[self.key(p) for p in points]``.

        Subclasses may override to amortise shared work across the batch (the
        Z curve reuses per-coordinate bit spreading); the default simply maps
        :meth:`key`, so every curve supports the batch entry points of the
        routing layer.
        """
        return [self.key(point) for point in points]

    # -------------------------------------------------------- standard cubes
    def cube_key_range(self, cube: StandardCube) -> KeyRange:
        """Return the inclusive key range ``[lo, hi]`` occupied by a standard cube.

        All cells of a standard cube at level ``i`` share the top ``d·i`` key
        bits, so the range is obtained by masking the low bits of the key of
        the cube's low-corner cell.
        """
        if cube.universe != self.universe:
            raise ValueError("cube belongs to a different universe than this curve")
        low_bits = cube.dims * (self.universe.order - cube.level)
        anchor = self.key(cube.low)
        lo = (anchor >> low_bits) << low_bits
        hi = lo + (1 << low_bits) - 1
        return (lo, hi)

    def cube_key_ranges(self, cubes: Sequence[StandardCube]) -> List[KeyRange]:
        """Key ranges of a batch of standard cubes.

        Identical to ``[self.cube_key_range(c) for c in cubes]`` but keys all
        anchor cells through :meth:`keys`, so the batch entry points of the
        match index (whole-decomposition inserts, bulk subscribe) benefit from
        the vectorized/cached keying instead of paying a scalar :meth:`key`
        call per cube.
        """
        order = self.universe.order
        for cube in cubes:
            if cube.universe != self.universe:
                raise ValueError("cube belongs to a different universe than this curve")
        anchors = self.keys([cube.low for cube in cubes])
        ranges: List[KeyRange] = []
        for cube, anchor in zip(cubes, anchors):
            low_bits = cube.dims * (order - cube.level)
            lo = (anchor >> low_bits) << low_bits
            ranges.append((lo, lo + (1 << low_bits) - 1))
        return ranges

    def cube_from_key_prefix(self, prefix: int, level: int) -> StandardCube:
        """Return the standard cube at ``level`` whose keys all start with ``prefix``.

        ``prefix`` is the top ``d·level`` bits of the keys of the cube's cells.
        """
        if not 0 <= level <= self.universe.order:
            raise ValueError(f"level must lie in [0, {self.universe.order}], got {level}")
        low_bits = self.universe.dims * (self.universe.order - level)
        if prefix < 0 or prefix.bit_length() > self.universe.dims * level:
            raise ValueError(f"prefix {prefix} does not fit in {self.universe.dims * level} bits")
        first_key = prefix << low_bits
        cell = self.point(first_key)
        side = self.universe.cube_side_at_level(level)
        low = tuple((x // side) * side for x in cell)
        return StandardCube(self.universe, low, side)

    # -------------------------------------------------------------- utilities
    def keys_of_rectangle(self, rect: Rectangle) -> Iterator[int]:
        """Yield the keys of every cell of ``rect`` (for small regions / testing only)."""
        for cell in rect.cells():
            yield self.key(cell)

    def brute_force_runs(self, rect: Rectangle) -> int:
        """Count the runs of ``rect`` by enumerating every cell.

        This is exponential in the rectangle volume and exists only as a
        ground-truth oracle for tests and small examples; production code uses
        :mod:`repro.sfc.runs`.
        """
        keys = sorted(self.keys_of_rectangle(rect))
        if not keys:
            return 0
        runs = 1
        for prev, cur in zip(keys, keys[1:]):
            if cur != prev + 1:
                runs += 1
        return runs

    def walk(self) -> Iterator[Tuple[int, ...]]:
        """Iterate over every cell of the universe in curve order (testing helper)."""
        for key in range(self.universe.num_cells):
            yield self.point(key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(d={self.universe.dims}, k={self.universe.order})"
