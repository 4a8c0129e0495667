"""Index structures: the SFC array and the flat segment store, plus spatial baselines."""

from .config import (
    DEFAULT_CUBE_BUDGET,
    DEFAULT_EPSILON,
    DEFAULT_PRECISION_BITS,
    DEFAULT_RUN_BUDGET,
    PRECISION_BIT_BUDGET,
    IndexConfig,
)
from .kdtree import KDTree, KDTreeStats
from .range_tree import RangeTree, RangeTreeStats
from .sfc_array import FlatSegmentStore, SFCArray, SFCArrayStats, StoredItem

__all__ = [
    "IndexConfig",
    "DEFAULT_RUN_BUDGET",
    "DEFAULT_PRECISION_BITS",
    "PRECISION_BIT_BUDGET",
    "DEFAULT_CUBE_BUDGET",
    "DEFAULT_EPSILON",
    "KDTree",
    "KDTreeStats",
    "RangeTree",
    "RangeTreeStats",
    "FlatSegmentStore",
    "SFCArray",
    "SFCArrayStats",
    "StoredItem",
]
