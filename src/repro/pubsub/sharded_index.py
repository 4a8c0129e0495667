"""Sharded match index: the subscription set partitioned across flat indexes.

One :class:`~repro.pubsub.match_index.MatchIndex` holds every subscription of
an interface in a single flattened store.  At large tables two costs
concentrate there: merge-rebuilds touch every live run, and a publish batch
probes one structure serially.  :class:`ShardedMatchIndex` splits the
subscription set round-robin across ``shards`` independent in-process match
indexes, so rebuild work per shard shrinks by the shard count, and a batch
query runs shard by shard over the whole batch against each (disjoint) slice.
The union of the answers is exact because matching is per-subscription —
partitioning cannot lose or duplicate a match.

Shard assignment is deterministic — round-robin in arrival order, and a
replacement stays in its shard — so runs are reproducible across hash
randomisation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple

from ..geometry.universe import Universe
from ..index.config import IndexConfig
from ..sfc.factory import make_curve
from .match_index import MatchIndex, MatchIndexStats
from .schema import AttributeSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .subscription_store import ProfileCache

__all__ = ["ShardedMatchIndex"]


class ShardedMatchIndex:
    """A :class:`MatchIndex` façade over ``shards`` disjoint shards.

    Exposes the same update/query surface as :class:`MatchIndex` (the routing
    stack selects it with ``backend="sharded"``), with identical answers: the
    shards partition the subscription set, so the union of per-shard matches
    is exactly the unsharded match set.  ``config`` supplies the shard count
    (``shards``) and the per-shard ``run_budget`` / ``precision_bits`` /
    ``curve`` (a derived grid follows each shard's own cost model: its
    table's size, probes and writes).
    ``run_cache`` is shared by the shards (see :class:`MatchIndex`).
    """

    def __init__(
        self,
        schema: AttributeSchema,
        config: Optional[IndexConfig] = None,
        run_cache: Optional["ProfileCache"] = None,
    ) -> None:
        config = (config or IndexConfig()).replace(backend="sharded")
        self.config = config
        self.schema = schema
        self.shards = config.shards
        self.run_budget = config.run_budget
        self.universe = Universe(dims=schema.num_attributes, order=schema.order)
        self.curve = make_curve(config.curve, self.universe)
        self._shard_of: Dict[Hashable, int] = {}
        self._next_shard = 0
        self._indexes: List[MatchIndex] = [
            MatchIndex(schema, config=config, run_cache=run_cache)
            for _ in range(self.shards)
        ]

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self._shard_of)

    def __contains__(self, sub_id: Hashable) -> bool:
        return sub_id in self._shard_of

    def event_key(self, cells: Sequence[int]) -> int:
        """Curve key of an event's quantised cell vector."""
        return self.curve.key(cells)

    def segment_count(self) -> int:
        """Total disjoint key segments across all shards."""
        return sum(index.segment_count() for index in self._indexes)

    @property
    def precision_bits(self) -> int:
        """The finest grid among the shards (each picks its own)."""
        return max(index.precision_bits for index in self._indexes)

    @property
    def stats(self) -> MatchIndexStats:
        """Aggregated operation counters across all shards (a fresh snapshot)."""
        # Read on every local-delivery probe (InterfaceTable.matching_ids):
        # the counters are plain ints, so skip astuple's deep copy.
        shard_stats = [vars(index.stats).values() for index in self._indexes]
        totals = [sum(column) for column in zip(*shard_stats)]
        return MatchIndexStats(*totals)

    # ----------------------------------------------------------------- updates
    def _target_shard(self, sub_id: Hashable) -> int:
        shard = self._shard_of.get(sub_id)
        return self._next_shard if shard is None else shard

    def _commit_assignment(self, sub_id: Hashable, shard: int) -> None:
        if sub_id not in self._shard_of:
            self._shard_of[sub_id] = shard
            self._next_shard = (self._next_shard + 1) % self.shards

    def add(self, sub_id: Hashable, ranges: Sequence[Tuple[int, int]]) -> None:
        """Index a subscription on its (deterministically assigned) shard."""
        shard = self._target_shard(sub_id)
        # MatchIndex.add validates before mutating, so a rejected add leaves
        # the assignment state untouched.
        self._indexes[shard].add(sub_id, ranges)
        self._commit_assignment(sub_id, shard)

    def add_batch(
        self, items: Sequence[Tuple[Hashable, Sequence[Tuple[int, int]]]]
    ) -> None:
        """Bulk subscribe: group the batch per shard, one bulk load per shard.

        Shard 0 validates the whole batch first, so one bad item rejects the
        batch before any shard or assignment changes.
        """
        validate = self._indexes[0]._validate_ranges
        deduped: Dict[Hashable, Sequence[Tuple[int, int]]] = {}
        for sub_id, ranges in items:
            validate(ranges)
            deduped[sub_id] = ranges
        per_shard: List[List[Tuple[Hashable, Sequence[Tuple[int, int]]]]] = [
            [] for _ in range(self.shards)
        ]
        for sub_id, ranges in deduped.items():
            shard = self._target_shard(sub_id)
            per_shard[shard].append((sub_id, ranges))
            self._commit_assignment(sub_id, shard)
        for index, shard_items in zip(self._indexes, per_shard):
            if shard_items:
                index.add_batch(shard_items)

    def remove(self, sub_id: Hashable) -> bool:
        """Drop a subscription from its shard; return True when it was present."""
        shard = self._shard_of.pop(sub_id, None)
        if shard is None:
            return False
        self._indexes[shard].remove(sub_id)
        return True

    # ----------------------------------------------------------------- queries
    def any_match(self, cells: Sequence[int], key: Optional[int] = None) -> bool:
        """True when at least one subscription on any shard matches the cells."""
        if key is None:
            key = self.curve.key(cells)
        return any(index.any_match(cells, key) for index in self._indexes)

    def matching_ids(
        self, cells: Sequence[int], key: Optional[int] = None
    ) -> List[Hashable]:
        """All matching subscriptions, concatenated in shard order."""
        if key is None:
            key = self.curve.key(cells)
        matched: List[Hashable] = []
        for index in self._indexes:
            matched.extend(index.matching_ids(cells, key))
        return matched

    def any_match_batch(
        self,
        cells_batch: Sequence[Sequence[int]],
        keys: Optional[Sequence[int]] = None,
    ) -> List[bool]:
        """Per event, OR the shards' answers."""
        if keys is None:
            keys = self.curve.keys(cells_batch)
        return [
            any(index.any_match(cells, key) for index in self._indexes)
            for cells, key in zip(cells_batch, keys)
        ]

    def matching_ids_batch(
        self,
        cells_batch: Sequence[Sequence[int]],
        keys: Optional[Sequence[int]] = None,
    ) -> List[List[Hashable]]:
        """Answer the batch shard by shard, then concatenate per event."""
        if keys is None:
            keys = self.curve.keys(cells_batch)
        merged: List[List[Hashable]] = [[] for _ in cells_batch]
        for index in self._indexes:
            shard_result = index.matching_ids_batch(cells_batch, keys=keys)
            for ids, shard_ids in zip(merged, shard_result):
                ids.extend(shard_ids)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardedMatchIndex(subscriptions={len(self)}, shards={self.shards})"
