"""The Edelsbrunner–Overmars transform: rectangle enclosure ⇄ point dominance.

A subscription over ``β`` numeric attributes is a conjunction of range
constraints, i.e. a ``β``-dimensional rectangle
``s = ([ℓ_1, r_1], ..., [ℓ_β, r_β])``.  The paper (following Edelsbrunner and
Overmars, 1982) maps it to the ``2β``-dimensional point

    ``p(s) = (−ℓ_1, r_1, −ℓ_2, r_2, ..., −ℓ_β, r_β)``

so that ``s1`` covers ``s2`` (``N(s1) ⊇ N(s2)``) exactly when every coordinate
of ``p(s1)`` is ≥ the corresponding coordinate of ``p(s2)``.

Space filling curves work on non-negative integer grids, so this module uses
the equivalent shifted form ``M − ℓ_i`` in place of ``−ℓ_i``, where
``M = 2^k − 1`` is the largest attribute value.  The shift is order-preserving
per coordinate, so dominance relations are unchanged.

The module is deliberately independent of the pub/sub layer: it works on raw
integer range tuples so that the core index can be tested without any
subscription machinery, while :mod:`repro.pubsub.subscription` builds on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence, Tuple

from .universe import PackedBox, Universe

__all__ = [
    "DominanceTransform",
    "dominates",
    "ranges_cover",
    "first_covering",
]

Range = Tuple[int, int]


def dominates(p: Sequence[int], q: Sequence[int]) -> bool:
    """Return True when point ``p`` dominates point ``q`` (``p_i ≥ q_i`` for every ``i``).

    >>> dominates((3, 5), (2, 5))
    True
    >>> dominates((3, 5), (4, 1))
    False
    """
    if len(p) != len(q):
        raise ValueError(f"points have different dimensionality: {len(p)} vs {len(q)}")
    return all(a >= b for a, b in zip(p, q))


def ranges_cover(outer: Sequence[Range], inner: Sequence[Range]) -> bool:
    """Return True when the conjunction of ranges ``outer`` covers ``inner``.

    ``outer`` covers ``inner`` when every message satisfying ``inner`` also
    satisfies ``outer``, i.e. each outer range contains the corresponding
    inner range.

    >>> ranges_cover([(0, 10), (5, 9)], [(2, 7), (5, 6)])
    True
    >>> ranges_cover([(0, 10), (6, 9)], [(2, 7), (5, 6)])
    False
    """
    if len(outer) != len(inner):
        raise ValueError(
            f"subscriptions have different numbers of attributes: {len(outer)} vs {len(inner)}"
        )
    return all(olo <= ilo and ihi <= ohi for (olo, ohi), (ilo, ihi) in zip(outer, inner))


def first_covering(
    stored: Iterable[Tuple[Hashable, PackedBox]],
    query: PackedBox,
    guard: int,
    exclude: Optional[Hashable] = None,
) -> Tuple[Optional[Hashable], int]:
    """First stored id, in iteration order, whose box contains ``query``, and how many were compared.

    The one comparison loop of the covering layer: a broker link's check over
    the subscriptions it has forwarded, the linear-scan detector and the
    compare side of the approximate detector.  ``stored`` yields
    ``(id, box)`` pairs; every box, ``query`` among them, is a
    :func:`~repro.geometry.universe.pack_box` result over the same attributes
    and order, and ``guard`` is their
    :func:`~repro.geometry.universe.packed_guard` — nothing is re-checked per
    comparison.  Each comparison is the packed covering test (one integer
    expression whatever the number of attributes, behind two plain integer
    comparisons; see :mod:`repro.geometry.universe`).  ``exclude`` is skipped
    and not counted.

    >>> from repro.geometry.universe import pack_box, packed_guard
    >>> box = lambda lo, hi: pack_box(((lo, hi),), 4)
    >>> stored = {"a": box(3, 4), "b": box(0, 9), "c": box(0, 9)}
    >>> first_covering(stored.items(), box(2, 5), packed_guard(1, 4))
    ('b', 2)
    """
    # R covers Q when ((Q.L | G) - R.L) & ((R.H | G) - Q.H) & G == G, behind
    # its two necessary conditions Q.L >= R.L and R.H | G >= Q.H | G (plain
    # comparisons, which reject most candidates without building an
    # integer); the query's operands are fixed for the whole scan.
    query_lo, query_hi = query
    guarded_lo = query_lo | guard
    bare_hi = query_hi ^ guard
    compared = 0
    for sub_id, (lo, hi) in stored:
        if sub_id == exclude:
            continue
        compared += 1
        if (
            query_lo >= lo
            and hi >= query_hi
            and (guarded_lo - lo) & (hi - bare_hi) & guard == guard
        ):
            return sub_id, compared
    return None, compared


@dataclass(frozen=True)
class DominanceTransform:
    """Maps range subscriptions over ``β`` attributes to dominance points in ``2β`` dims.

    Parameters
    ----------
    attributes:
        Number of numeric attributes ``β`` in each subscription.
    attribute_order:
        Bit resolution ``k`` of each attribute: values lie in ``[0, 2^k − 1]``.

    The induced dominance universe has ``2β`` dimensions, each of the same
    resolution ``k``, and is exposed as :attr:`universe`.
    """

    attributes: int
    attribute_order: int

    def __post_init__(self) -> None:
        if self.attributes <= 0:
            raise ValueError(f"need at least one attribute, got {self.attributes}")
        if self.attribute_order <= 0:
            raise ValueError(f"attribute order must be positive, got {self.attribute_order}")

    @property
    def universe(self) -> Universe:
        """The ``2β``-dimensional dominance universe."""
        return Universe(dims=2 * self.attributes, order=self.attribute_order)

    @property
    def max_value(self) -> int:
        """Largest representable attribute value ``M = 2^k − 1``."""
        return (1 << self.attribute_order) - 1

    # -------------------------------------------------------------- transform
    def validate_ranges(self, ranges: Sequence[Range]) -> Tuple[Range, ...]:
        """Validate a subscription's range constraints against the attribute domain."""
        rs = tuple((int(lo), int(hi)) for lo, hi in ranges)
        if len(rs) != self.attributes:
            raise ValueError(
                f"subscription has {len(rs)} ranges but the transform expects {self.attributes}"
            )
        for lo, hi in rs:
            if lo > hi:
                raise ValueError(f"range low {lo} exceeds range high {hi}")
            if lo < 0 or hi > self.max_value:
                raise ValueError(
                    f"range [{lo}, {hi}] is outside the attribute domain [0, {self.max_value}]"
                )
        return rs

    def to_point(self, ranges: Sequence[Range]) -> Tuple[int, ...]:
        """Map a subscription ``([ℓ_1, r_1], ...)`` to its dominance point.

        The point is ``(M − ℓ_1, r_1, M − ℓ_2, r_2, ...)``: larger coordinates
        mean a *wider* subscription, so covering subscriptions dominate the
        subscriptions they cover.
        """
        rs = self.validate_ranges(ranges)
        point: list[int] = []
        for lo, hi in rs:
            point.append(self.max_value - lo)
            point.append(hi)
        return tuple(point)

    def from_point(self, point: Sequence[int]) -> Tuple[Range, ...]:
        """Invert :meth:`to_point`.

        Raises ``ValueError`` when the point does not correspond to a valid
        subscription (i.e. when some decoded range has ``lo > hi``).
        """
        pt = self.universe.validate_point(point)
        ranges: list[Range] = []
        for i in range(self.attributes):
            lo = self.max_value - pt[2 * i]
            hi = pt[2 * i + 1]
            if lo > hi:
                raise ValueError(
                    f"point {pt} does not encode a valid subscription: attribute {i} "
                    f"decodes to the empty range [{lo}, {hi}]"
                )
            ranges.append((lo, hi))
        return tuple(ranges)

    # ---------------------------------------------------------------- queries
    def covers(self, outer: Sequence[Range], inner: Sequence[Range]) -> bool:
        """Ground-truth covering test in subscription space (no index involved)."""
        return ranges_cover(self.validate_ranges(outer), self.validate_ranges(inner))
