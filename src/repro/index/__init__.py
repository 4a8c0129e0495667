"""Index structures: the SFC array and its backends, plus spatial baselines."""

from .avl import AVLTree
from .config import (
    DEFAULT_CUBE_BUDGET,
    DEFAULT_EPSILON,
    DEFAULT_MATCH_BACKEND,
    DEFAULT_PRECISION_BITS,
    DEFAULT_RUN_BUDGET,
    DEFAULT_SHARDS,
    INDEX_BACKEND_NAMES,
    MATCH_BACKEND_NAMES,
    PRECISION_BIT_BUDGET,
    IndexConfig,
)
from .backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    AVLBackend,
    FlatBackend,
    OrderedMapBackend,
    SkipListBackend,
    SortedListBackend,
    make_backend,
    ordered_map_backend_name,
)
from .kdtree import KDTree, KDTreeStats
from .range_tree import RangeTree, RangeTreeStats
from .rtree import RTree, RTreeStats
from .sfc_array import FlatSegmentStore, SFCArray, SFCArrayStats, StoredItem
from .skiplist import SkipList

__all__ = [
    "AVLTree",
    "SkipList",
    "IndexConfig",
    "INDEX_BACKEND_NAMES",
    "MATCH_BACKEND_NAMES",
    "DEFAULT_MATCH_BACKEND",
    "DEFAULT_RUN_BUDGET",
    "DEFAULT_PRECISION_BITS",
    "PRECISION_BIT_BUDGET",
    "DEFAULT_CUBE_BUDGET",
    "DEFAULT_EPSILON",
    "DEFAULT_SHARDS",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "AVLBackend",
    "FlatBackend",
    "OrderedMapBackend",
    "SkipListBackend",
    "SortedListBackend",
    "make_backend",
    "ordered_map_backend_name",
    "KDTree",
    "KDTreeStats",
    "RangeTree",
    "RangeTreeStats",
    "RTree",
    "RTreeStats",
    "FlatSegmentStore",
    "SFCArray",
    "SFCArrayStats",
    "StoredItem",
]
