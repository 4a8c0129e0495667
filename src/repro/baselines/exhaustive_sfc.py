"""Exhaustive SFC-based covering detection (the paper's point of comparison).

This baseline runs the *same* SFC machinery as the approximate detector but
never truncates the search: every standard cube of the greedy decomposition of
the dominance region is probed until either a witness turns up or the region
is exhausted.  Theorem 4.1 shows the number of runs this can require grows as
``(2^{α−1}·ℓ)^{d−1}`` with the shortest side length ℓ, which is exactly the
blow-up the ε-approximate query avoids.

A cube budget protects callers from pathological queries; when it is hit the
query reports that it was truncated so benchmarks can distinguish "completed
exhaustively" from "gave up".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Sequence, Tuple

from ..core.approx_dominance import ApproximateDominanceIndex, DominanceQueryResult
from ..geometry.transform import DominanceTransform, Range

__all__ = ["ExhaustiveSFCCoveringDetector"]


@dataclass
class ExhaustiveSFCCoveringDetector:
    """Exact covering detection via exhaustive Z-curve dominance search."""

    attributes: int
    attribute_order: int
    cube_budget: int = 1_000_000

    def __post_init__(self) -> None:
        self.transform = DominanceTransform(self.attributes, self.attribute_order)
        self.index = ApproximateDominanceIndex(
            universe=self.transform.universe,
            epsilon=0.0,
            cube_budget=self.cube_budget,
        )
        self._subscriptions: Dict[Hashable, Tuple[Range, ...]] = {}

    # ---------------------------------------------------------------- updates
    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: Hashable) -> bool:
        return sub_id in self._subscriptions

    def add_subscription(self, sub_id: Hashable, ranges: Sequence[Range]) -> None:
        """Store a subscription under ``sub_id`` (replacing any previous one)."""
        validated = self.transform.validate_ranges(ranges)
        self._subscriptions[sub_id] = validated
        self.index.insert(sub_id, self.transform.to_point(validated))

    def remove_subscription(self, sub_id: Hashable) -> bool:
        """Remove a subscription; return True when it was present."""
        if sub_id not in self._subscriptions:
            return False
        del self._subscriptions[sub_id]
        self.index.remove(sub_id)
        return True

    def subscriptions(self) -> Dict[Hashable, Tuple[Range, ...]]:
        """Return a copy of all stored subscriptions."""
        return dict(self._subscriptions)

    # ---------------------------------------------------------------- queries
    def find_covering(
        self, ranges: Sequence[Range], exclude: Optional[Hashable] = None
    ) -> Optional[Hashable]:
        """Return the id of any stored subscription covering ``ranges``, or ``None``."""
        return self.find_covering_with_stats(ranges, exclude=exclude)[0]

    def find_covering_with_stats(
        self, ranges: Sequence[Range], exclude: Optional[Hashable] = None
    ) -> Tuple[Optional[Hashable], DominanceQueryResult]:
        """Like :meth:`find_covering` but also return the dominance-query accounting.

        The search skips ``exclude`` without touching the index.
        """
        result = self.index.query(self.transform.to_point(ranges), 0.0, exclude)
        covering_id = result.item.item_id if result.item is not None else None
        return covering_id, result

    def is_covered(self, ranges: Sequence[Range]) -> bool:
        """Return True when some stored subscription covers ``ranges``."""
        return self.find_covering(ranges) is not None
