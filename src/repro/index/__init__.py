"""Index structures: the match index's config, the SFC array and the flat segment store.

The paper's spatial baselines, :mod:`.kdtree` and :mod:`.range_tree`, are
imported from their modules.
"""

from .config import (
    DEFAULT_PRECISION_BITS,
    PRECISION_BIT_BUDGET,
    IndexConfig,
)
from .sfc_array import FlatSegmentStore, SFCArray, SFCArrayStats, StoredItem

__all__ = [
    "IndexConfig",
    "DEFAULT_PRECISION_BITS",
    "PRECISION_BIT_BUDGET",
    "FlatSegmentStore",
    "SFCArray",
    "SFCArrayStats",
    "StoredItem",
]
