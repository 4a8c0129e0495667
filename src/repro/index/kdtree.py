"""A k-d tree baseline for point-dominance queries.

The paper frames subscription covering as point dominance and indexes points
with a space filling curve.  A natural competitor is a k-d tree over the same
points: dominance becomes an orthogonal range query over the extremal region
``[q_1, max] × ... × [q_d, max]`` with "report any" semantics.  The k-d tree
needs only linear space but offers no worst-case guarantee in high dimensions,
which is exactly the regime the paper targets; the throughput benchmark
(experiment E-THROUGHPUT) quantifies the comparison empirically.

The implementation supports dynamic insertion (points are appended without
rebalancing; a periodic rebuild keeps the tree near-balanced).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

__all__ = ["KDTree"]


class _Node:
    __slots__ = ("point", "item_id", "axis", "left", "right", "bbox_low", "bbox_high")

    def __init__(self, point: Tuple[int, ...], item_id: Hashable, axis: int) -> None:
        self.point = point
        self.item_id = item_id
        self.axis = axis
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        # Bounding box of the subtree rooted here (updated on insert).
        self.bbox_low = point
        self.bbox_high = point


@dataclass
class KDTree:
    """A k-d tree over integer points supporting report-any dominance queries."""

    dims: int

    #: The tree is rebuilt balanced once the inserts since the last build
    #: exceed this multiple of the size it was built at.
    REBUILD_FACTOR = 4.0

    def __post_init__(self) -> None:
        if self.dims <= 0:
            raise ValueError(f"dims must be positive, got {self.dims}")
        self._root: Optional[_Node] = None
        self._size = 0
        self._inserts_since_build = 0

    def __len__(self) -> int:
        return self._size

    # ---------------------------------------------------------------- updates
    def insert(self, item_id: Hashable, point: Sequence[int]) -> None:
        """Insert a point; duplicate coordinates are allowed."""
        pt = self._validate(point)
        self._root = self._insert(self._root, pt, item_id, depth=0)
        self._size += 1
        self._inserts_since_build += 1
        if (
            self._size > 16
            and self._inserts_since_build > self.REBUILD_FACTOR * self._size_at_last_build()
        ):
            self.rebuild()

    def _size_at_last_build(self) -> int:
        return max(1, self._size - self._inserts_since_build)

    def _insert(
        self, node: Optional[_Node], point: Tuple[int, ...], item_id: Hashable, depth: int
    ) -> _Node:
        if node is None:
            return _Node(point, item_id, depth % self.dims)
        node.bbox_low = tuple(min(a, b) for a, b in zip(node.bbox_low, point))
        node.bbox_high = tuple(max(a, b) for a, b in zip(node.bbox_high, point))
        if point[node.axis] < node.point[node.axis]:
            node.left = self._insert(node.left, point, item_id, depth + 1)
        else:
            node.right = self._insert(node.right, point, item_id, depth + 1)
        return node

    def rebuild(self) -> None:
        """Rebuild a balanced tree from the stored points (median splits)."""
        items = [(n.item_id, n.point) for n in self._iter_nodes(self._root)]
        self._root = self._build_balanced(items, depth=0)
        self._size = len(items)
        self._inserts_since_build = 0

    def _build_balanced(
        self, items: List[Tuple[Hashable, Tuple[int, ...]]], depth: int
    ) -> Optional[_Node]:
        if not items:
            return None
        axis = depth % self.dims
        items.sort(key=lambda entry: entry[1][axis])
        mid = len(items) // 2
        item_id, point = items[mid]
        node = _Node(point, item_id, axis)
        node.left = self._build_balanced(items[:mid], depth + 1)
        node.right = self._build_balanced(items[mid + 1 :], depth + 1)
        lows = [point]
        highs = [point]
        for child in (node.left, node.right):
            if child is not None:
                lows.append(child.bbox_low)
                highs.append(child.bbox_high)
        node.bbox_low = tuple(min(vals) for vals in zip(*lows))
        node.bbox_high = tuple(max(vals) for vals in zip(*highs))
        return node

    def _iter_nodes(self, node: Optional[_Node]):
        if node is None:
            return
        yield node
        yield from self._iter_nodes(node.left)
        yield from self._iter_nodes(node.right)

    # ---------------------------------------------------------------- queries
    def find_dominating(self, query: Sequence[int]) -> Optional[Tuple[Hashable, Tuple[int, ...]]]:
        """Return any stored point that dominates ``query`` coordinate-wise, or ``None``."""
        return self._search(self._root, self._validate(query))

    def _search(
        self, node: Optional[_Node], query: Tuple[int, ...]
    ) -> Optional[Tuple[Hashable, Tuple[int, ...]]]:
        if node is None:
            return None
        # Prune: the subtree's upper corner must dominate the query for any
        # point inside to possibly dominate it.
        if any(hi < q for hi, q in zip(node.bbox_high, query)):
            return None
        if all(p >= q for p, q in zip(node.point, query)):
            return (node.item_id, node.point)
        # Prefer the right child: along the split axis it holds the larger
        # coordinates, which are more likely to dominate.
        found = self._search(node.right, query)
        if found is not None:
            return found
        return self._search(node.left, query)

    # -------------------------------------------------------------- internals
    def _validate(self, point: Sequence[int]) -> Tuple[int, ...]:
        pt = tuple(int(x) for x in point)
        if len(pt) != self.dims:
            raise ValueError(f"point {pt} has {len(pt)} coordinates, expected {self.dims}")
        return pt
