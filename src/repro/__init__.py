"""repro — Approximate covering detection among content-based subscriptions using SFCs.

A from-scratch reproduction of Shen & Tirthapura's approximate subscription
covering (ICDCS 2007 / JPDC 2012), grown into a content-based
publish/subscribe broker network.  The package holds two layers:

* the product, what a broker runs: :mod:`repro.pubsub` (schema,
  subscriptions, brokers, the network and its match index), :mod:`repro.sim`
  and :mod:`repro.net` (transports), :mod:`repro.obs` (metrics, traces,
  profiler), :mod:`repro.workloads`, :mod:`repro.geometry`, the Z curve and
  its runs in :mod:`repro.sfc`, the standard-cube decomposition in
  :mod:`repro.core.decomposition`, the SFC array and flat segment store in
  :mod:`repro.index`, and the ``repro.analysis.cli`` entry point;
* the paper, what only its experiments run: the ε-approximate dominance
  search, covering detector and bounds in :mod:`repro.core`, the Hilbert and
  Gray curves, the k-d tree and range tree and :mod:`repro.baselines`.  The
  experiments that run it are scripts under ``experiments/``.

A package re-exports only its product names, and this one only the
broker-network API; a paper name is imported from its module.

Quickstart::

    from repro.core.covering import ApproximateCoveringDetector

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

from .pubsub.network import BrokerNetwork
from .pubsub.schema import Attribute, AttributeSchema
from .pubsub.subscription import Event, Subscription
from .obs.profiler import PROFILER, profiling_requested

if profiling_requested():
    PROFILER.enable()

__version__ = "1.0.0"

__all__ = [
    "BrokerNetwork",
    "Attribute",
    "AttributeSchema",
    "Event",
    "Subscription",
    "__version__",
]
