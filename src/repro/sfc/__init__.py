"""Space filling curves: Z-order (Morton), Hilbert and Gray-code, plus run analysis."""

from .base import KeyRange, SpaceFillingCurve
from .factory import CURVE_KINDS, DEFAULT_CURVE, curve_class, make_curve
from .gray import GrayCodeCurve, default_gray
from .hilbert import HilbertCurve, default_hilbert
from .runs import (
    GridRunTable,
    RunProfile,
    brute_force_run_profile,
    count_runs,
    cube_key_ranges,
    merge_key_ranges,
)
from .zorder import ZOrderCurve, default_zorder

__all__ = [
    "KeyRange",
    "SpaceFillingCurve",
    "CURVE_KINDS",
    "DEFAULT_CURVE",
    "curve_class",
    "make_curve",
    "GrayCodeCurve",
    "HilbertCurve",
    "ZOrderCurve",
    "default_gray",
    "default_hilbert",
    "default_zorder",
    "GridRunTable",
    "RunProfile",
    "brute_force_run_profile",
    "count_runs",
    "cube_key_ranges",
    "merge_key_ranges",
]
