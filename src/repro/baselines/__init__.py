"""Baseline covering-detection strategies the paper is compared against.

The linear scan is the reference answer the covering tests check against;
the probabilistic sampler is E-RECALL's comparison.  The exhaustive (ε = 0)
SFC search is not a class of its own: it is
:meth:`~repro.core.covering.ApproximateCoveringDetector.find_covering_exhaustive`,
the same dominance index with the approximation turned off.
"""

from .linear_scan import LinearScanCoveringDetector, LinearScanStats
from .probabilistic import ProbabilisticCoveringDetector

__all__ = [
    "LinearScanCoveringDetector",
    "LinearScanStats",
    "ProbabilisticCoveringDetector",
]
