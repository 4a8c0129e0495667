"""A multi-dimensional range tree baseline for point dominance.

The paper's related-work section points out that the best worst-case solution
to point dominance (Willard / Willard–Lueker style layered range trees) has
``O(log^{d−1} n)`` query time but ``O(n log^d n)`` space, which makes it
impractical for a router holding many subscriptions.  This module implements
a (static) nested range tree so that the reproduction can measure exactly that
trade-off: query time competitive with the SFC index, memory footprint growing
with ``log^{d−1} n`` secondary structures.

Structure: a balanced tree over the first coordinate; every internal node
stores a recursively built range tree over the remaining coordinates for the
points in its subtree.  The base case (one remaining dimension) keeps the
points sorted by that coordinate, so a dominance probe is a binary search.
Dominance queries decompose the half-open interval ``[q_1, ∞)`` into
``O(log n)`` canonical nodes and recurse into their secondary structures.

The tree is static — it is built once from a point set.  ``insert`` is
provided for API parity but triggers a full rebuild; the space/time accounting
methods are the interesting part for the evaluation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence, Tuple

__all__ = ["RangeTree", "RangeTreeStats"]

Point = Tuple[int, ...]
Entry = Tuple[Hashable, Point]


@dataclass
class RangeTreeStats:
    """Counters for the work and space used by the range tree."""

    nodes_visited: int = 0
    queries: int = 0


class _LastDimNode:
    """Base case: points sorted by their final coordinate."""

    __slots__ = ("sorted_values", "entries")

    def __init__(self, entries: List[Entry], coord: int) -> None:
        ordered = sorted(entries, key=lambda e: e[1][coord])
        self.entries = ordered
        self.sorted_values = [e[1][coord] for e in ordered]

    def find_at_least(self, value: int) -> Optional[Entry]:
        idx = bisect.bisect_left(self.sorted_values, value)
        if idx < len(self.entries):
            return self.entries[idx]
        return None

    def storage_cells(self) -> int:
        return len(self.entries)


class _TreeNode:
    """Internal node of the primary tree over coordinate ``coord``."""

    __slots__ = ("value", "left", "right", "secondary", "min_value", "max_value")

    def __init__(self) -> None:
        self.value: int = 0
        self.left: Optional["_TreeNode"] = None
        self.right: Optional["_TreeNode"] = None
        self.secondary: Optional[object] = None
        self.min_value: int = 0
        self.max_value: int = 0


@dataclass
class RangeTree:
    """Static nested range tree supporting report-any dominance queries."""

    dims: int
    stats: RangeTreeStats = field(default_factory=RangeTreeStats)

    def __post_init__(self) -> None:
        if self.dims <= 0:
            raise ValueError(f"dims must be positive, got {self.dims}")
        self._entries: List[Entry] = []
        self._root: Optional[object] = None

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ build
    @classmethod
    def build(cls, dims: int, entries: Sequence[Entry]) -> "RangeTree":
        """Build a range tree over ``entries`` (``(item_id, point)`` pairs)."""
        tree = cls(dims=dims)
        tree._entries = [(item_id, tuple(point)) for item_id, point in entries]
        for _, point in tree._entries:
            if len(point) != dims:
                raise ValueError(f"point {point} has {len(point)} coordinates, expected {dims}")
        tree._root = tree._build(tree._entries, coord=0)
        return tree

    def insert(self, item_id: Hashable, point: Sequence[int]) -> None:
        """Add a point (triggers a full rebuild — the structure is inherently static)."""
        pt = tuple(int(x) for x in point)
        if len(pt) != self.dims:
            raise ValueError(f"point {pt} has {len(pt)} coordinates, expected {self.dims}")
        self._entries.append((item_id, pt))
        self._root = self._build(self._entries, coord=0)

    def _build(self, entries: List[Entry], coord: int) -> Optional[object]:
        if not entries:
            return None
        if coord == self.dims - 1:
            return _LastDimNode(entries, coord)
        ordered = sorted(entries, key=lambda e: e[1][coord])
        return self._build_primary(ordered, coord)

    def _build_primary(self, ordered: List[Entry], coord: int) -> _TreeNode:
        node = _TreeNode()
        node.min_value = ordered[0][1][coord]
        node.max_value = ordered[-1][1][coord]
        node.secondary = self._build(list(ordered), coord + 1)
        if len(ordered) > 1:
            mid = len(ordered) // 2
            node.value = ordered[mid][1][coord]
            node.left = self._build_primary(ordered[:mid], coord)
            node.right = self._build_primary(ordered[mid:], coord)
        else:
            node.value = ordered[0][1][coord]
        return node

    # ---------------------------------------------------------------- queries
    def find_dominating(self, query: Sequence[int]) -> Optional[Entry]:
        """Return any stored point that dominates ``query``, or ``None``."""
        q = tuple(int(x) for x in query)
        if len(q) != self.dims:
            raise ValueError(f"query {q} has {len(q)} coordinates, expected {self.dims}")
        self.stats.queries += 1
        return self._query(self._root, q, coord=0)

    def _query(self, node: Optional[object], query: Point, coord: int) -> Optional[Entry]:
        if node is None:
            return None
        self.stats.nodes_visited += 1
        if isinstance(node, _LastDimNode):
            return node.find_at_least(query[coord])
        assert isinstance(node, _TreeNode)
        # Entire subtree below the threshold on this coordinate: nothing dominates.
        if node.max_value < query[coord]:
            return None
        # Entire subtree at/above the threshold: recurse into its secondary
        # structure, which covers exactly the points of this subtree.
        if node.min_value >= query[coord]:
            return self._query(node.secondary, query, coord + 1)
        # Otherwise split: the right child holds the larger coordinates.
        found = self._query(node.right, query, coord)
        if found is not None:
            return found
        return self._query(node.left, query, coord)

    # ------------------------------------------------------------- accounting
    def storage_cells(self) -> int:
        """Total number of point copies stored across all secondary structures.

        This is the quantity that blows up as ``O(n log^{d−1} n)`` and is the
        reason the paper dismisses range trees for router-resident indexes.
        """
        def count(node: Optional[object]) -> int:
            if node is None:
                return 0
            if isinstance(node, _LastDimNode):
                return node.storage_cells()
            assert isinstance(node, _TreeNode)
            total = count(node.secondary)
            total += count(node.left)
            total += count(node.right)
            return total

        return count(self._root)
