"""Monte-Carlo subsumption checking, in the spirit of Ouksel et al. (2006).

The paper's related work cites a probabilistic covering detector whose cost is
``O(n·m)`` per query: rather than test geometric containment exactly, the
detector samples points from the query subscription's region and asks which
stored subscriptions match *all* samples.  A subscription that matches every
sample is accepted as a (probable) cover; false positives are possible when
the sample misses the part of the query region the candidate fails to cover,
while subscriptions that truly cover the query always match every sample, so
there are no false negatives among evaluated candidates.

This reproduction implements the idea over the same range-subscription model
used everywhere else so the recall experiment (E-RECALL, ``recall`` in
``experiments/paper.py``) can compare three covering detectors: exact linear
scan, probabilistic sampling, and the paper's SFC-based approximate search.  The error direction differs — the
probabilistic detector may *wrongly* report covering (which would suppress a
subscription that must be forwarded, a correctness hazard for the routing
layer), whereas the SFC approximate detector can only *miss* covers (a pure
performance loss).  E-RECALL's table quantifies both.
For that reason no broker routes with this detector: the pub/sub layer
offers only the sound strategies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..geometry.transform import DominanceTransform, Range

__all__ = ["ProbabilisticCoveringDetector"]


@dataclass
class ProbabilisticCoveringDetector:
    """Covering detection by sampling points of the query subscription.

    Parameters
    ----------
    attributes / attribute_order:
        Subscription schema, as for the other detectors.
    samples:
        Number of random points drawn from the query subscription's region per
        query.  More samples reduce the false-positive probability at a linear
        cost increase.  The samples are uniform only: always sampling the two
        extreme corners would make the check exact for range conjunctions
        (covering both corners covers the box), and the baseline models the
        probabilistic check.
    """

    attributes: int
    attribute_order: int
    samples: int = 8
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ValueError(f"samples must be positive, got {self.samples}")
        self.transform = DominanceTransform(self.attributes, self.attribute_order)
        self._rng = random.Random(self.seed)
        self._subscriptions: Dict[Hashable, Tuple[Range, ...]] = {}

    # ---------------------------------------------------------------- updates
    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: Hashable) -> bool:
        return sub_id in self._subscriptions

    def add_subscription(self, sub_id: Hashable, ranges: Sequence[Range]) -> None:
        """Store a subscription under ``sub_id`` (replacing any previous one)."""
        self._subscriptions[sub_id] = self.transform.validate_ranges(ranges)

    def remove_subscription(self, sub_id: Hashable) -> bool:
        """Remove a subscription; return True when it was present."""
        return self._subscriptions.pop(sub_id, None) is not None

    # ---------------------------------------------------------------- queries
    def _sample_points(self, ranges: Tuple[Range, ...]) -> List[Tuple[int, ...]]:
        """Draw sample messages uniformly from the query subscription's region.

        A candidate that covers most but not all of the query region can slip
        through (the false-positive mode of a sampling-based subsumption check).
        """
        return [
            tuple(self._rng.randint(lo, hi) for lo, hi in ranges)
            for _ in range(self.samples)
        ]

    @staticmethod
    def _matches(ranges: Tuple[Range, ...], point: Tuple[int, ...]) -> bool:
        return all(lo <= x <= hi for (lo, hi), x in zip(ranges, point))

    def find_covering(
        self, ranges: Sequence[Range], exclude: Optional[Hashable] = None
    ) -> Optional[Hashable]:
        """Return a stored subscription believed to cover ``ranges``, or ``None``.

        The answer may be a false positive with probability decreasing in
        ``samples``.
        """
        query = self.transform.validate_ranges(ranges)
        sample_points = self._sample_points(query)
        for sub_id, stored in self._subscriptions.items():
            if sub_id == exclude:
                continue
            if all(self._matches(stored, pt) for pt in sample_points):
                return sub_id
        return None
