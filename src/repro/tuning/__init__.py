"""Offline choice of an index configuration.

:func:`recommend_config` scores :class:`~repro.index.config.IndexConfig`
variants by replaying a workload's event cells against a trial index loaded
with its subscriptions (:class:`CostModel`) and walks greedily to the config
that does the least work.  A network is then built on the recommended config
and keeps it: nothing here runs on the live path.
"""

from .cost_model import CostModel
from .recommend import MAX_STEPS, MIN_GAIN, default_candidates, recommend_config

__all__ = ["CostModel", "MAX_STEPS", "MIN_GAIN", "default_candidates", "recommend_config"]
