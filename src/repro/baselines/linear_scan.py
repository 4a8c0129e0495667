"""Linear-scan covering detection: the baseline deployed systems actually use.

Siena, JEDI and REBECA detect covering by comparing an incoming subscription
against the stored ones predicate-by-predicate.  The cost per query is
``O(n·β)`` where ``n`` is the number of stored subscriptions and ``β`` the
number of attributes — exact, simple, and linear in the routing-table size,
which is precisely the scaling the paper sets out to beat.  Here the ``β``
predicates of one comparison are a single integer expression over packed
boxes (:func:`~repro.geometry.transform.first_covering`), so the scan is
linear in ``n`` at a per-comparison cost that hardly moves with ``β``.

The detector exposes the same interface as
:class:`repro.core.covering.ApproximateCoveringDetector` (add / remove / find)
so that the pub/sub broker and the benchmark harness can swap strategies
freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence

from ..geometry.transform import DominanceTransform, Range, first_covering
from ..geometry.universe import PackedBox, pack_box, packed_guard, unpack_box

__all__ = ["LinearScanCoveringDetector", "LinearScanStats"]


@dataclass
class LinearScanStats:
    """Work counters: subscriptions compared across all queries."""

    queries: int = 0
    comparisons: int = 0


@dataclass
class LinearScanCoveringDetector:
    """Exact covering detection by scanning every stored subscription."""

    attributes: int
    attribute_order: int
    stats: LinearScanStats = field(default_factory=LinearScanStats)

    def __post_init__(self) -> None:
        self.transform = DominanceTransform(self.attributes, self.attribute_order)
        self._guard = packed_guard(self.attributes, self.attribute_order)
        # Stored subscriptions, packed, in insertion order.
        self._subscriptions: Dict[Hashable, PackedBox] = {}

    # ---------------------------------------------------------------- updates
    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: Hashable) -> bool:
        return sub_id in self._subscriptions

    def add_subscription(self, sub_id: Hashable, ranges: Sequence[Range]) -> None:
        """Store a subscription under ``sub_id`` (replacing any previous one).

        A replaced id counts as newly inserted: the scan reaches it last.
        """
        box = pack_box(self.transform.validate_ranges(ranges), self.attribute_order)
        self._subscriptions.pop(sub_id, None)
        self._subscriptions[sub_id] = box

    def remove_subscription(self, sub_id: Hashable) -> bool:
        """Remove a subscription; return True when it was present."""
        return self._subscriptions.pop(sub_id, None) is not None

    # ---------------------------------------------------------------- queries
    def find_covering(
        self, ranges: Sequence[Range], exclude: Optional[Hashable] = None
    ) -> Optional[Hashable]:
        """Return the id of any stored subscription covering ``ranges``, or ``None``."""
        query = pack_box(self.transform.validate_ranges(ranges), self.attribute_order)
        self.stats.queries += 1
        covering_id, compared = first_covering(
            self._subscriptions.items(), query, self._guard, exclude
        )
        self.stats.comparisons += compared
        return covering_id

    def all_covering(self, ranges: Sequence[Range]) -> List[Hashable]:
        """Return every stored subscription covering ``ranges`` (per-attribute test)."""
        query = self.transform.validate_ranges(ranges)
        return [
            sub_id
            for sub_id, box in self._subscriptions.items()
            if self.transform.covers(unpack_box(box, self.attributes, self.attribute_order), query)
        ]
