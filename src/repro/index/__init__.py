"""Index structures: the SFC array and the flat segment store, plus spatial baselines."""

from .config import (
    DEFAULT_PRECISION_BITS,
    PRECISION_BIT_BUDGET,
    IndexConfig,
)
from .kdtree import KDTree, KDTreeStats
from .range_tree import RangeTree, RangeTreeStats
from .sfc_array import FlatSegmentStore, SFCArray, SFCArrayStats, StoredItem

__all__ = [
    "IndexConfig",
    "DEFAULT_PRECISION_BITS",
    "PRECISION_BIT_BUDGET",
    "KDTree",
    "KDTreeStats",
    "RangeTree",
    "RangeTreeStats",
    "FlatSegmentStore",
    "SFCArray",
    "SFCArrayStats",
    "StoredItem",
]
