"""Space filling curves: Z-order (Morton), Hilbert and Gray-code, plus run analysis."""

from .base import KeyRange, SpaceFillingCurve
from .factory import CURVE_KINDS, make_curve
from .gray import GrayCodeCurve
from .hilbert import HilbertCurve
from .runs import (
    GridRunTable,
    RunProfile,
    brute_force_run_profile,
    cube_key_ranges,
    merge_key_ranges,
)
from .zorder import ZOrderCurve

__all__ = [
    "KeyRange",
    "SpaceFillingCurve",
    "CURVE_KINDS",
    "make_curve",
    "GrayCodeCurve",
    "HilbertCurve",
    "ZOrderCurve",
    "GridRunTable",
    "RunProfile",
    "brute_force_run_profile",
    "cube_key_ranges",
    "merge_key_ranges",
]
