"""repro — Approximate covering detection among content-based subscriptions using SFCs.

A from-scratch reproduction of Shen & Tirthapura's approximate subscription
covering (ICDCS 2007 / JPDC 2012).  The package is layered bottom-up:

* :mod:`repro.geometry` — bit utilities, universes, rectangles and the
  Edelsbrunner–Overmars rectangle-enclosure ⇄ point-dominance transform.
* :mod:`repro.sfc` — space filling curves (Z-order, Hilbert, Gray-code) and
  run analysis.
* :mod:`repro.index` — the SFC array and the flat segment store, plus k-d
  tree and range-tree baselines.
* :mod:`repro.core` — the paper's contribution: greedy standard-cube
  decomposition, ε-approximate point dominance, approximate covering
  detection, and the analytic bounds (Theorems 3.1 and 4.1).
* :mod:`repro.baselines` — linear-scan and probabilistic covering detectors
  (a broker link's ``approximate`` covering check is an exact scan like the
  linear one; the probabilistic one is a recall comparison only).
* :mod:`repro.pubsub` — a content-based publish/subscribe broker network that
  uses sound covering to prune subscription propagation.
* :mod:`repro.workloads` / :mod:`repro.analysis` — synthetic workloads,
  experiment drivers and reporting.

Quickstart::

    from repro import ApproximateCoveringDetector

    # An offline query states its cube budget; the detector's default of
    # 2,000 cubes stops this one before it reaches the witness.
    detector = ApproximateCoveringDetector(
        attributes=2,
        attribute_order=10,
        epsilon=0.05,
        cube_budget=1_000_000,
    )
    detector.add_subscription("wide", [(0, 900), (100, 800)])
    result = detector.find_covering([(10, 500), (200, 700)])
    assert result.covered and result.covering_id == "wide"
"""

from .core.approx_dominance import ApproximateDominanceIndex, DominanceQueryResult
from .core.covering import ApproximateCoveringDetector, CoveringResult
from .geometry.rect import ExtremalRectangle, Rectangle, StandardCube
from .geometry.transform import DominanceTransform
from .geometry.universe import Universe
from .index.sfc_array import SFCArray
from .pubsub.network import BrokerNetwork
from .pubsub.schema import Attribute, AttributeSchema
from .pubsub.subscription import Event, Subscription
from .sfc.factory import CURVE_KINDS, make_curve
from .sfc.gray import GrayCodeCurve
from .sfc.hilbert import HilbertCurve
from .sfc.zorder import ZOrderCurve
from .obs.profiler import PROFILER, profiling_requested

if profiling_requested():
    PROFILER.enable()

__version__ = "1.0.0"

__all__ = [
    "ApproximateDominanceIndex",
    "DominanceQueryResult",
    "ApproximateCoveringDetector",
    "CoveringResult",
    "ExtremalRectangle",
    "Rectangle",
    "StandardCube",
    "DominanceTransform",
    "Universe",
    "SFCArray",
    "BrokerNetwork",
    "Attribute",
    "AttributeSchema",
    "Event",
    "Subscription",
    "GrayCodeCurve",
    "HilbertCurve",
    "ZOrderCurve",
    "CURVE_KINDS",
    "make_curve",
    "__version__",
]
