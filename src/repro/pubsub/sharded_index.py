"""Shard-parallel match index: the subscription set partitioned across workers.

One :class:`~repro.pubsub.match_index.MatchIndex` holds every subscription of
an interface in a single flattened store.  At millions of subscriptions two
costs concentrate there: merge-rebuilds touch every live run, and a publish
batch probes one structure serially.  :class:`ShardedMatchIndex` splits the
subscription set round-robin across ``shards`` independent match
indexes, so rebuild work per shard shrinks by the shard count and a publish
batch becomes a scatter/gather: every shard answers the whole batch against
its own (disjoint) slice, and the union of the answers is exact because
matching is per-subscription — partitioning cannot lose or duplicate a match.

Two worker modes:

* ``workers="inline"`` (default) keeps the shards as in-process indexes.
  This is the mode the routing stack uses: it preserves single-process
  determinism while still bounding per-shard rebuild cost, and is the shape a
  thread-per-shard deployment would take under a runtime without a GIL.
* ``workers="process"`` forks one daemon process per shard connected by a
  pipe.  Mutations are fire-and-forget writes (validated in the parent first,
  so a worker never dies on bad input); queries scatter to every shard before
  gathering, overlapping the shards' matching work.  Requires the ``fork``
  start method (POSIX); call :meth:`close` (or use the index as a context
  manager) to tear the workers down.

Shard assignment is deterministic — round-robin in arrival order, and a
replacement stays in its shard — so runs are reproducible under both modes
and across hash randomisation.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import astuple
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple

from ..geometry.universe import Universe
from ..index.config import IndexConfig
from ..sfc.factory import make_curve
from .match_index import MatchIndex, MatchIndexStats
from .schema import AttributeSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .subscription_store import ProfileCache

__all__ = ["ShardedMatchIndex", "WORKER_KINDS"]

#: Worker modes of the sharded index.
WORKER_KINDS = ("inline", "process")


def _shard_worker(conn, schema, config) -> None:
    """Worker loop of one process shard: apply mutations, answer query batches."""
    index = MatchIndex(schema, config=config)
    while True:
        msg = conn.recv()
        op = msg[0]
        if op == "add":
            index.add(msg[1], msg[2])
        elif op == "add_batch":
            index.add_batch(msg[1])
        elif op == "remove":
            index.remove(msg[1])
        elif op == "match_batch":
            conn.send(index.matching_ids_batch(msg[1], keys=msg[2]))
        elif op == "any_batch":
            conn.send(index.any_match_batch(msg[1], keys=msg[2]))
        elif op == "segments":
            conn.send(index.segment_count())
        elif op == "stats":
            conn.send(astuple(index.stats))
        elif op == "close":
            conn.close()
            return


class ShardedMatchIndex:
    """A :class:`MatchIndex` façade over ``shards`` disjoint shards.

    Exposes the same update/query surface as :class:`MatchIndex` (the routing
    stack selects it with ``backend="sharded"``), with identical answers: the
    shards partition the subscription set, so the union of per-shard matches
    is exactly the unsharded match set.  ``config`` supplies the shard count
    (``shards``) and the per-shard ``run_budget`` / ``precision_bits`` /
    ``curve`` (a derived grid grows with each shard's own table).  ``run_cache`` is shared by the inline shards (see :class:`MatchIndex`); process workers live in their
    own address space and decompose for themselves.
    """

    backend_name = "sharded"

    def __init__(
        self,
        schema: AttributeSchema,
        workers: str = "inline",
        config: Optional[IndexConfig] = None,
        run_cache: Optional["ProfileCache"] = None,
    ) -> None:
        config = (config or IndexConfig()).replace(backend="sharded")
        if workers not in WORKER_KINDS:
            raise ValueError(
                f"unknown worker kind {workers!r}; expected one of {WORKER_KINDS}"
            )
        self.config = config
        self.schema = schema
        self.shards = config.shards
        self.workers = workers
        self.run_budget = config.run_budget
        self.universe = Universe(dims=schema.num_attributes, order=schema.order)
        self.curve = make_curve(config.curve, self.universe)
        # Shard 0's index doubles as the parent-side validator in process
        # mode; the keyer above serves both modes.
        self._shard_of: Dict[Hashable, int] = {}
        self._next_shard = 0
        if workers == "inline":
            self._indexes: Optional[List[MatchIndex]] = [
                MatchIndex(schema, config=config, run_cache=run_cache)
                for _ in range(self.shards)
            ]
            self._conns = None
            self._procs = None
            self._validator: Optional[MatchIndex] = self._indexes[0]
        else:
            if "fork" not in multiprocessing.get_all_start_methods():
                raise ValueError(
                    "workers='process' requires the fork start method (POSIX)"
                )
            ctx = multiprocessing.get_context("fork")
            self._indexes = None
            self._conns = []
            self._procs = []
            self._validator = MatchIndex(schema, config=config)
            for _ in range(self.shards):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(child_conn, schema, config),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
        self._closed = False
        # Final per-shard counters, drained at close() in process mode so the
        # aggregate survives worker teardown.
        self._final_stats: Optional[MatchIndexStats] = None
        self._final_segments: Optional[int] = None

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
        if self._indexes is not None:
            return sum(index.segment_count() for index in self._indexes)
        if self._final_segments is not None:
            return self._final_segments
        for conn in self._conns:
            conn.send(("segments",))
        return sum(conn.recv() for conn in self._conns)

    @property
    def stats(self) -> MatchIndexStats:
        """Aggregated operation counters across all shards (a fresh snapshot).

        In process mode the per-shard counters live in the workers; the final
        aggregate is drained into the parent at :meth:`close`, so reading
        stats after teardown returns the totals instead of undercounting.
        """
        if self._indexes is not None:
            # Read on every local-delivery probe (InterfaceTable.matching_ids):
            # the counters are plain ints, so skip astuple's deep copy.
            shard_stats = [vars(index.stats).values() for index in self._indexes]
        elif self._final_stats is not None:
            shard_stats = [astuple(self._final_stats)]
        else:
            for conn in self._conns:
                conn.send(("stats",))
            shard_stats = [conn.recv() for conn in self._conns]
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
        if self._indexes is not None:
            # MatchIndex.add validates before mutating, so a rejected add
            # leaves the assignment state untouched.
            self._indexes[shard].add(sub_id, ranges)
        else:
            self._validator._validate_ranges(ranges)
            self._conns[shard].send(("add", sub_id, tuple(ranges)))
        self._commit_assignment(sub_id, shard)

    def add_batch(
        self, items: Sequence[Tuple[Hashable, Sequence[Tuple[int, int]]]]
    ) -> None:
        """Bulk subscribe: group the batch per shard, one bulk load per shard."""
        deduped: Dict[Hashable, Sequence[Tuple[int, int]]] = {}
        for sub_id, ranges in items:
            self._validator._validate_ranges(ranges)
            deduped[sub_id] = ranges
        per_shard: List[List[Tuple[Hashable, Sequence[Tuple[int, int]]]]] = [
            [] for _ in range(self.shards)
        ]
        for sub_id, ranges in deduped.items():
            shard = self._target_shard(sub_id)
            per_shard[shard].append((sub_id, ranges))
            self._commit_assignment(sub_id, shard)
        for shard, shard_items in enumerate(per_shard):
            if not shard_items:
                continue
            if self._indexes is not None:
                self._indexes[shard].add_batch(shard_items)
            else:
                self._conns[shard].send(("add_batch", shard_items))

    def remove(self, sub_id: Hashable) -> bool:
        """Drop a subscription from its shard; return True when it was present."""
        shard = self._shard_of.pop(sub_id, None)
        if shard is None:
            return False
        if self._indexes is not None:
            self._indexes[shard].remove(sub_id)
        else:
            self._conns[shard].send(("remove", sub_id))
        return True

    # ----------------------------------------------------------------- queries
    def any_match(self, cells: Sequence[int], key: Optional[int] = None) -> bool:
        """True when at least one subscription on any shard matches the cells."""
        if key is None:
            key = self.curve.key(cells)
        if self._indexes is not None:
            return any(index.any_match(cells, key) for index in self._indexes)
        return self.any_match_batch([cells], keys=[key])[0]

    def matching_ids(
        self, cells: Sequence[int], key: Optional[int] = None
    ) -> List[Hashable]:
        """All matching subscriptions, concatenated in shard order."""
        if key is None:
            key = self.curve.key(cells)
        if self._indexes is not None:
            matched: List[Hashable] = []
            for index in self._indexes:
                matched.extend(index.matching_ids(cells, key))
            return matched
        return self.matching_ids_batch([cells], keys=[key])[0]

    def any_match_batch(
        self,
        cells_batch: Sequence[Sequence[int]],
        keys: Optional[Sequence[int]] = None,
    ) -> List[bool]:
        """Scatter the batch to every shard, gather, OR the per-event answers."""
        if keys is None:
            keys = self.curve.keys(cells_batch)
        if self._indexes is not None:
            return [
                any(index.any_match(cells, key) for index in self._indexes)
                for cells, key in zip(cells_batch, keys)
            ]
        payload = [tuple(cells) for cells in cells_batch]
        for conn in self._conns:
            conn.send(("any_batch", payload, list(keys)))
        results = [False] * len(payload)
        for conn in self._conns:
            for i, hit in enumerate(conn.recv()):
                if hit:
                    results[i] = True
        return results

    def matching_ids_batch(
        self,
        cells_batch: Sequence[Sequence[int]],
        keys: Optional[Sequence[int]] = None,
    ) -> List[List[Hashable]]:
        """Scatter the batch to every shard, gather, concatenate per event."""
        if keys is None:
            keys = self.curve.keys(cells_batch)
        if self._indexes is not None:
            results = [
                index.matching_ids_batch(cells_batch, keys=keys)
                for index in self._indexes
            ]
        else:
            payload = [tuple(cells) for cells in cells_batch]
            for conn in self._conns:
                conn.send(("match_batch", payload, list(keys)))
            results = [conn.recv() for conn in self._conns]
        merged: List[List[Hashable]] = [[] for _ in cells_batch]
        for shard_result in results:
            for i, ids in enumerate(shard_result):
                merged[i].extend(ids)
        return merged

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down process workers (no-op for inline shards; idempotent).

        Before tearing the workers down, their per-shard counters and segment
        totals are drained into the parent so :attr:`stats` /
        :meth:`segment_count` stay accurate after close — the network's
        match-work accounting would otherwise undercount every sharded
        interface that was closed before stats collection.
        """
        if self._closed:
            return
        self._closed = True
        if self._conns is None:
            return
        try:
            self._final_stats = self.stats
            self._final_segments = self.segment_count()
        except (BrokenPipeError, EOFError, OSError):
            # A worker already died; keep whatever the last successful read
            # saw rather than failing teardown.
            pass
        for conn in self._conns:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5)
        for conn in self._conns:
            conn.close()

    def __enter__(self) -> "ShardedMatchIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedMatchIndex(subscriptions={len(self)}, shards={self.shards}, "
            f"workers={self.workers!r})"
        )
