"""Recommend an :class:`~repro.index.config.IndexConfig` for a recorded workload.

Every index knob changes how much work a match does, never its answer, so a
config can be chosen offline from a sample of the subscriptions an interface
will hold and the event cells it will be probed with.
:func:`recommend_config` walks greedily from a start config: each step
scores the configs one move away (:func:`default_candidates`) with a
:class:`~repro.tuning.cost_model.CostModel` and moves to the best of them
only when it beats the incumbent by :data:`MIN_GAIN`.  The walk is a pure
function of its inputs: same inputs, same config.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

from ..index.config import IndexConfig
from ..sfc.factory import CURVE_KINDS
from .cost_model import CostModel

__all__ = ["MAX_STEPS", "MIN_GAIN", "default_candidates", "recommend_config"]

#: Relative score improvement a candidate needs over the incumbent to be kept.
MIN_GAIN = 0.1

#: Most moves the walk makes from its start config.
MAX_STEPS = 8


def default_candidates(config: IndexConfig) -> List[IndexConfig]:
    """Configs one move away from ``config``.

    Re-curving (every other curve kind) plus re-decomposition (halved and
    doubled run budget — tighter runs cut false positives, coarser runs cut
    probe counts).  ``config`` itself is not a candidate.
    """
    candidates: List[IndexConfig] = []
    for kind in CURVE_KINDS:
        if kind != config.curve:
            candidates.append(config.replace(curve=kind))
    half = max(1, config.run_budget // 2)
    if half != config.run_budget:
        candidates.append(config.replace(run_budget=half))
    candidates.append(config.replace(run_budget=config.run_budget * 2))
    return candidates


def recommend_config(
    schema,
    config: IndexConfig,
    subscriptions: Sequence[Tuple[Hashable, Sequence[Tuple[int, int]]]],
    probes: Sequence[Tuple[int, ...]],
    cost_model: Optional[CostModel] = None,
) -> IndexConfig:
    """The config a greedy walk from ``config`` settles on for this workload.

    ``subscriptions`` are ``(sub_id, quantised ranges)`` pairs and ``probes``
    event cells; every config the walk considers is scored on all of them
    (:meth:`CostModel.evaluate`).  A step moves to the lowest-scoring
    candidate that beats the incumbent's score by :data:`MIN_GAIN`; the walk
    stops when none does, or after :data:`MAX_STEPS` moves.  Returns
    ``config`` itself when no candidate clears the bar.
    """
    model = cost_model if cost_model is not None else CostModel()
    best = config
    best_score = model.evaluate(schema, config, subscriptions, probes)
    for _ in range(MAX_STEPS):
        winner: Optional[IndexConfig] = None
        winner_score = best_score * (1.0 - MIN_GAIN)
        for candidate in default_candidates(best):
            score = model.evaluate(schema, candidate, subscriptions, probes)
            if score < winner_score:  # strict: a tie keeps the incumbent
                winner, winner_score = candidate, score
        if winner is None:
            break
        best, best_score = winner, winner_score
    return best
