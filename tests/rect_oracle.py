"""Rectangle containment and intersection, the oracles of the geometry tests.

Production code decides both per coordinate inline; these helpers state the
definitions once, by the rectangles' corners, for the tests that check cubes
and decompositions against them.
"""

from __future__ import annotations

from repro.geometry.rect import Rectangle


def contains(outer: Rectangle, inner: Rectangle) -> bool:
    """``inner`` lies entirely inside ``outer``."""
    return all(
        olo <= ilo and ihi <= ohi
        for olo, ohi, ilo, ihi in zip(outer.low, outer.high, inner.low, inner.high)
    )


def intersect(a: Rectangle, b: Rectangle) -> bool:
    """The two rectangles share at least one cell."""
    return all(blo <= ahi and alo <= bhi for alo, ahi, blo, bhi in zip(a.low, a.high, b.low, b.high))
