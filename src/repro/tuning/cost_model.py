"""Workload-driven cost model for index configurations.

:meth:`CostModel.evaluate` builds a throwaway
:class:`~repro.pubsub.match_index.MatchIndex` under a candidate config, loads
a set of subscriptions, replays a set of event probes and scores the work the
trial index performed.  Replay is deterministic: same subscriptions + same
probes → same score.

Scores are *work units* (candidates checked, weighted false positives, runs
stored), not wall-clock — deterministic across machines, comparable across
configs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence, Tuple

from ..index.config import MATCH_BACKEND_NAMES, IndexConfig
from ..pubsub.match_index import MatchIndex

__all__ = ["CostModel"]


@dataclass
class CostModel:
    """Scores configs against a recorded workload.

    Parameters
    ----------
    probe_weight:
        Weight of each candidate examined during probe replay (the dominant
        matching cost: one exact rectangle check per candidate).
    fp_weight:
        Extra penalty per false positive — a candidate that was checked *and*
        rejected, i.e. pure overhead the decomposition caused.
    run_weight:
        Weight of each run the trial index *stores* — the maintenance side of
        the trade-off.  Finer decompositions (higher run budgets) cut false
        positives but cost memory and insert/rebuild work; without this term
        the probe-only score rewards doubling the run budget forever.
    """

    probe_weight: float = 1.0
    fp_weight: float = 1.0
    run_weight: float = 0.25

    def evaluate(
        self,
        schema,
        config: IndexConfig,
        subscriptions: Sequence[Tuple[Hashable, Sequence[Tuple[int, int]]]],
        probes: Sequence[Tuple[int, ...]],
    ) -> float:
        """Trial-replay score of ``config`` (lower is better).

        Builds a fresh index under ``config``, bulk-loads the subscriptions
        and replays every probe.  The composite ``"sharded"`` backend is
        scored through the flat store its shards are built on — candidate
        sets are backend-independent, so the score carries over.
        """
        trial_config = (
            config
            if config.backend in MATCH_BACKEND_NAMES
            else config.replace(backend="flat")
        )
        index = MatchIndex(schema, config=trial_config)
        if subscriptions:
            index.add_batch(list(subscriptions))
        for cells in probes:
            index.matching_ids(cells)
        stats = index.stats
        return (
            self.probe_weight * stats.candidates_checked
            + self.fp_weight * stats.false_positives
            + self.run_weight * stats.runs_stored
        )
