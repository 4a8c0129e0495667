"""Space filling curves: the Z-order (Morton) curve every match index keys on, plus run analysis.

The Hilbert and Gray-code curves (:mod:`.hilbert`, :mod:`.gray`) serve the
paper's curve comparisons only; import their classes from their modules.
"""

from .base import KeyRange, SpaceFillingCurve
from .runs import (
    GridRunTable,
    RunProfile,
    brute_force_run_profile,
    merge_key_ranges,
)
from .zorder import ZOrderCurve

__all__ = [
    "KeyRange",
    "SpaceFillingCurve",
    "ZOrderCurve",
    "GridRunTable",
    "RunProfile",
    "brute_force_run_profile",
    "merge_key_ranges",
]
