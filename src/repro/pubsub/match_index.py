"""SFC-keyed forwarding-match index: event matching as a single ordered-map probe.

Brokers answer "does any subscription stored on this interface match event
``p``?" for every event on every interface — the dominant cost of event
routing once an interface holds thousands of subscriptions.  The linear scan
in :class:`~repro.pubsub.routing_table.InterfaceTable` costs ``O(n)`` match
tests per event; this module brings the paper's SFC machinery to bear on that
hot path the same way Section 5 applies it to covering detection.

The idea: a subscription is a rectangle on the quantised attribute grid, and
by Fact 2.1 a rectangle decomposes into a bounded number of *runs* —
contiguous key segments under any recursive-partitioning curve (Z-order by
default; Hilbert and Gray plug in through the same interface).  An event is a
single cell, i.e. a single key.  "Event matches subscription" is exactly
"``key(p)`` lies inside one of the subscription's runs".  The index
therefore stores the runs of every
subscription, flattened into *disjoint* key segments each labelled with the
set of subscriptions whose runs cover it.  Because the segments are disjoint,
the segment containing ``key(p)`` — if any — is found by one
``first_in_range(key(p), max_key)`` probe on an ordered-map backend from
:mod:`repro.index.backends` (the segment with the smallest upper endpoint
``>= key(p)``; the point is inside it iff the segment's lower endpoint is
``<= key(p)``).

Three refinements keep the structure bounded and sound:

* **Precision-bounded decomposition.**  Before decomposing, the rectangle is
  snapped outward to a grid of side ``2^{order - precision_bits}``, so the
  quadtree recursion bottoms out after ``precision_bits`` levels instead of
  descending to unit cells whose runs the coarsening below would discard
  anyway.  Snapping outward only ever *adds* cells.  On a grid within the
  default precision budget (4,096 cubes) the runs are not decomposed at all
  but read off a :class:`~repro.sfc.runs.GridRunTable` — the same runs at a
  tenth of the cost, so a rectangle the run cache has not seen costs an
  insert about what a cached one does.
* **Run-budget coarsening.**  Thin rectangles can decompose into many runs
  (the aspect-ratio lower bound of Theorem 4.1), so per subscription the run
  list is over-approximated down to at most ``run_budget`` ranges by closing
  the smallest inter-run gaps.  Again, only ever adds keys, so no matching
  event can be missed.
* **Rectangle fallback check.**  A candidate produced by the segment probe may
  be a false positive of the coarsening (its over-approximated range contains
  ``key(p)`` but its rectangle does not contain ``p``).  Every candidate is
  therefore confirmed with a ``d``-comparison per-attribute range check before
  being reported, which restores exactness.

Together: no false negatives (exact runs cover every matching key and
coarsening only widens them), no false positives (the rectangle check rejects
them) — the index is behaviourally identical to the linear scan while the
per-event cost is one ordered-map probe plus the candidates of one segment.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.decomposition import decompose_rectangle
from ..geometry.rect import Rectangle, StandardCube
from ..geometry.universe import Universe
from ..index.backends import make_backend
from ..index.config import MATCH_BACKEND_NAMES, PRECISION_BIT_BUDGET, IndexConfig
from ..index.sfc_array import FlatSegmentStore
from ..obs.profiler import profiled
from ..sfc.base import KeyRange
from ..sfc.factory import make_curve
from ..sfc.runs import GridRunTable, merge_key_ranges
from .schema import AttributeSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .subscription_store import ProfileCache

__all__ = ["MatchIndex", "MatchIndexStats"]


@functools.lru_cache(maxsize=32)
def _grid_run_table(kind: str, dims: int, order: int, bits: int) -> GridRunTable:
    """The process-wide run table of one (curve, universe, precision grid)."""
    return GridRunTable(make_curve(kind, Universe(dims=dims, order=order)), bits)


@dataclass
class MatchIndexStats:
    """Operation counters (backend-independent work units for benchmarks)."""

    inserts: int = 0
    removals: int = 0
    runs_stored: int = 0
    coarsened_subscriptions: int = 0
    lookups: int = 0
    candidates_checked: int = 0
    false_positives: int = 0


@dataclass
class _Segment:
    """One maximal key interval covered by a fixed set of subscriptions.

    Stored in the ordered-map backend under the segment's inclusive *upper*
    endpoint; ``lo`` is the inclusive lower endpoint.  Segments are pairwise
    disjoint and non-adjacent segments never share an identical ``subs`` set
    for long (removal re-coalesces), so the backend size stays proportional to
    the stored run count.
    """

    lo: int
    subs: Set[Hashable] = field(default_factory=set)


class MatchIndex:
    """Point-stab index over the subscriptions of one interface.

    Parameters
    ----------
    schema:
        Attribute schema shared with the routing layer; fixes the grid
        (``d = num_attributes`` dimensions, ``2^order`` cells per side).
    config:
        The :class:`~repro.index.config.IndexConfig` (defaults to
        ``IndexConfig()``).  The index reads four of its fields.  ``backend``
        names the segment store (:data:`~repro.index.config.MATCH_BACKEND_NAMES`):
        ``"flat"`` (the default) keeps the disjoint segments in parallel sorted
        arrays probed by ``bisect``, with bulk-load construction, a pending-run
        buffer and amortised merge-rebuilds
        (:class:`~repro.index.sfc_array.FlatSegmentStore`); the ordered-map
        names (``"avl"``, ``"skiplist"``, ``"sortedlist"``) store one node per
        segment and remain selectable for the ablation.  ``run_budget`` caps
        the key ranges stored per subscription (see module docstring).
        ``precision_bits`` is the grid resolution (bits per dimension) at
        which rectangles are decomposed; schemas with a larger order have
        their rectangles snapped outward to this grid first, and ``None``
        scales the default down with dimensionality so the total
        decomposition work stays within ``precision_bit_budget``.  ``curve``
        names the space-filling curve (:data:`~repro.sfc.factory.CURVE_KINDS`)
        keying the segments; curves differ in run counts — and therefore in
        segment counts and false-positive rates — never in match answers.
    seed:
        Seed of the randomised ordered-map backends (the skip list).
    run_cache:
        Optional :class:`~repro.pubsub.subscription_store.ProfileCache`
        memoising each snapped rectangle's key runs.  A rectangle's runs are
        pure geometry, so every index handed the same cache (the brokers of a
        network share one) decomposes a rectangle once between them and
        stores the same immutable run tuple.  Answers, stored state and
        :attr:`stats` are identical with and without it.
    """

    def __init__(
        self,
        schema: AttributeSchema,
        seed: Optional[int] = None,
        config: Optional[IndexConfig] = None,
        run_cache: Optional["ProfileCache"] = None,
    ) -> None:
        config = config or IndexConfig()
        if config.backend not in MATCH_BACKEND_NAMES:
            raise ValueError(
                f"MatchIndex backend must be one of {MATCH_BACKEND_NAMES}, got "
                f"{config.backend!r} (the composite 'sharded' backend lives in "
                f"ShardedMatchIndex)"
            )
        self.config = config
        self.schema = schema
        self.universe = Universe(dims=schema.num_attributes, order=schema.order)
        self.curve = make_curve(config.curve, self.universe)
        self.run_budget = config.run_budget
        self.precision_bits = config.effective_precision_bits(self.universe.dims)
        backend = config.backend
        effective = min(self.precision_bits, self.universe.order)
        self._snap = 1 << (self.universe.order - effective)
        self._run_cache = run_cache
        # Everything a snapped rectangle's stored runs depend on besides the
        # rectangle itself; namespaces this index's entries in the run cache.
        self._run_key = (
            self.curve.kind,
            self.universe.dims,
            self.universe.order,
            effective,
            self.run_budget,
        )
        # Grids of at most 2^PRECISION_BIT_BUDGET cubes (every derived
        # precision; an explicit ``precision_bits`` may exceed it) read runs
        # off the shared table, fetched on the first uncached rectangle.
        self._tabulated = self.universe.dims * effective <= PRECISION_BIT_BUDGET
        self._grid_runs: Optional[GridRunTable] = None
        self.backend_name = backend
        if backend == "flat":
            self._flat: Optional[FlatSegmentStore] = FlatSegmentStore()
            self._segments = None
            # Subscription-id interning: the flat store works on integer
            # slots so its member arrays are machine-word arrays rather than
            # object tuples.  Slots are never reused.
            self._slot_of: Dict[Hashable, int] = {}
            self._id_of: Dict[int, Hashable] = {}
            self._rect_of_slot: Dict[int, Tuple[Tuple[int, int], ...]] = {}
            self._next_slot = 0
        else:
            self._flat = None
            self._segments = make_backend(backend, seed=seed)
        self._ranges: Dict[Hashable, Tuple[KeyRange, ...]] = {}
        self._rects: Dict[Hashable, Tuple[Tuple[int, int], ...]] = {}
        self.stats = MatchIndexStats()

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self._rects)

    def __contains__(self, sub_id: Hashable) -> bool:
        return sub_id in self._rects

    def segment_count(self) -> int:
        """Number of disjoint key segments currently stored (structure size)."""
        if self._flat is not None:
            return self._flat.segment_count()
        return len(self._segments)

    def event_key(self, cells: Sequence[int]) -> int:
        """Curve key of an event's quantised cell vector."""
        return self.curve.key(cells)

    # ----------------------------------------------------------------- updates
    def _validate_ranges(
        self, ranges: Sequence[Tuple[int, int]]
    ) -> Tuple[Tuple[int, int], ...]:
        if len(ranges) != self.universe.dims:
            raise ValueError(
                f"subscription has {len(ranges)} ranges but the schema "
                f"has {self.universe.dims} attributes"
            )
        max_cell = self.universe.max_coordinate
        out = []
        for lo, hi in ranges:
            lo = int(lo)
            hi = int(hi)
            if lo > hi or lo < 0 or hi > max_cell:
                raise ValueError(
                    f"invalid subscription range [{lo}, {hi}]; expected "
                    f"0 <= lo <= hi <= {max_cell}"
                )
            out.append((lo, hi))
        return tuple(out)

    def _snap_signature(
        self, rect_ranges: Tuple[Tuple[int, int], ...]
    ) -> Tuple[Tuple[int, int], ...]:
        """The rectangle on the precision grid (outward snap, coarse coordinates).

        Snapping outward bounds the quadtree work regardless of the schema
        order and only ever *adds* cells (over-approximation, rejected later
        by the rectangle check).  Rectangles sharing a signature share their
        decomposition, which is what lets :meth:`add_batch` decompose each
        distinct shape once.
        """
        snap = self._snap
        if snap == 1:
            return rect_ranges
        return tuple([(lo // snap, hi // snap) for lo, hi in rect_ranges])

    def _decompose_signature(
        self, signature: Tuple[Tuple[int, int], ...]
    ) -> List[StandardCube]:
        """Standard-cube partition (in the full universe) of a snapped rectangle.

        The snapped rectangle is aligned to the precision grid, so the
        quadtree recursion stops at cubes of side ``snap``: ``precision_bits``
        levels whatever the schema order.
        """
        snap = self._snap
        rect = Rectangle(
            tuple([lo * snap for lo, _ in signature]),
            tuple([(hi + 1) * snap - 1 for _, hi in signature]),
        )
        return decompose_rectangle(self.universe, rect)

    def _runs_for(
        self, signatures: Sequence[Tuple[Tuple[int, int], ...]]
    ) -> List[Tuple[Tuple[KeyRange, ...], bool]]:
        """``(stored runs, was coarsened)`` per snapped rectangle, through the run cache.

        Rectangles the cache does not hold get their runs here — from the
        grid run table where the precision grid is small enough to have one,
        otherwise by decomposing them and keying all their cubes through one
        :meth:`SpaceFillingCurve.cube_key_ranges` call — and the results are
        memoised for every index sharing the cache.
        """
        cache = self._run_cache
        run_key = self._run_key
        if cache is not None:
            entries = [cache.match_runs((run_key, signature)) for signature in signatures]
            missing = [i for i, entry in enumerate(entries) if entry is None]
        else:
            entries = [None] * len(signatures)
            missing = range(len(signatures))
        if not missing:
            return entries
        if self._tabulated:
            table = self._grid_runs
            if table is None:
                table = self._grid_runs = _grid_run_table(*self._run_key[:4])
            for i in missing:
                entries[i] = entry = self._coarsen(table.runs(signatures[i]))
                if cache is not None:
                    cache.store_match_runs((run_key, signatures[i]), entry)
            return entries
        all_cubes: List[StandardCube] = []
        cube_counts: List[int] = []
        for i in missing:
            cubes = self._decompose_signature(signatures[i])
            all_cubes.extend(cubes)
            cube_counts.append(len(cubes))
        key_ranges = self.curve.cube_key_ranges(all_cubes)
        pos = 0
        for i, count in zip(missing, cube_counts):
            entries[i] = entry = self._coarsen(
                merge_key_ranges(key_ranges[pos : pos + count])
            )
            pos += count
            if cache is not None:
                cache.store_match_runs((run_key, signatures[i]), entry)
        return entries

    def _store(
        self,
        sub_id: Hashable,
        rect_ranges: Tuple[Tuple[int, int], ...],
        runs: Tuple[KeyRange, ...],
    ) -> Optional[int]:
        """Record a subscription; returns its slot under the flat backend."""
        self._rects[sub_id] = rect_ranges
        slot: Optional[int] = None
        if self._flat is not None:
            slot = self._next_slot
            self._next_slot = slot + 1
            self._slot_of[sub_id] = slot
            self._id_of[slot] = sub_id
            self._rect_of_slot[slot] = rect_ranges
        else:
            self._ranges[sub_id] = runs
            for lo, hi in runs:
                self._insert_range(lo, hi, sub_id)
        self.stats.inserts += 1
        self.stats.runs_stored += len(runs)
        return slot

    def add(self, sub_id: Hashable, ranges: Sequence[Tuple[int, int]]) -> None:
        """Index a subscription's quantised per-attribute ranges (replacing any previous).

        Validation happens before any mutation, so a rejected replace leaves
        the previously stored entry intact.
        """
        rect_ranges = self._validate_ranges(ranges)
        if sub_id in self._rects:
            self.remove(sub_id)
        [(runs, coarsened)] = self._runs_for([self._snap_signature(rect_ranges)])
        self.stats.coarsened_subscriptions += coarsened
        slot = self._store(sub_id, rect_ranges, runs)
        if slot is not None:
            self._flat.add(slot, runs)

    #: Distinct snapped rectangles decomposed per chunk of :meth:`add_batch`,
    #: bounding the number of standard cubes held in memory at once while
    #: still amortising the batched anchor keying.
    BATCH_CHUNK = 4096

    def add_batch(
        self, items: Sequence[Tuple[Hashable, Sequence[Tuple[int, int]]]]
    ) -> None:
        """Index many subscriptions in one pass (bulk subscribe).

        Semantics are identical to calling :meth:`add` per item in order
        (later duplicates replace earlier ones); the batch wins three times
        on cost: subscriptions sharing a snapped rectangle are decomposed
        once (not at all when the run cache already holds the rectangle),
        each chunk keys all its decomposition cubes through one
        :meth:`SpaceFillingCurve.cube_key_ranges` call, and under the flat
        backend the whole batch is flattened by a single merge-rebuild
        instead of per-subscription segment splicing.
        """
        # One fused validate + dedup pass (the body mirrors _validate_ranges;
        # a million-subscription batch cannot afford a function call per item).
        dims = self.universe.dims
        max_cell = self.universe.max_coordinate
        deduped: Dict[Hashable, Tuple[Tuple[int, int], ...]] = {}
        for sub_id, ranges in items:
            if len(ranges) != dims:
                raise ValueError(
                    f"subscription has {len(ranges)} ranges but the schema "
                    f"has {dims} attributes"
                )
            out = []
            for lo, hi in ranges:
                lo = int(lo)
                hi = int(hi)
                if lo > hi or lo < 0 or hi > max_cell:
                    raise ValueError(
                        f"invalid subscription range [{lo}, {hi}]; expected "
                        f"0 <= lo <= hi <= {max_cell}"
                    )
                out.append((lo, hi))
            deduped[sub_id] = tuple(out)
        for sub_id in deduped:
            if sub_id in self._rects:
                self.remove(sub_id)
        # Group subscriptions by snapped rectangle: each distinct signature is
        # decomposed once for the whole batch.
        groups: Dict[Tuple[Tuple[int, int], ...], List] = {}
        snap = self._snap
        for sub_id, rect_ranges in deduped.items():
            if snap == 1:
                signature = rect_ranges
            else:
                signature = tuple([(lo // snap, hi // snap) for lo, hi in rect_ranges])
            members = groups.get(signature)
            if members is None:
                groups[signature] = members = []
            members.append((sub_id, rect_ranges))
        signatures = list(groups)
        flat = self._flat
        rects = self._rects
        if flat is not None:
            slot_of = self._slot_of
            id_of = self._id_of
            rect_of_slot = self._rect_of_slot
            next_slot = self._next_slot
        runs_stored = 0
        bulk: List[Tuple[int, Tuple[KeyRange, ...]]] = []
        for start in range(0, len(signatures), self.BATCH_CHUNK):
            chunk = signatures[start : start + self.BATCH_CHUNK]
            entries = self._runs_for(chunk)
            for signature, (runs, coarsened) in zip(chunk, entries):
                self.stats.coarsened_subscriptions += coarsened
                num_runs = len(runs)
                if flat is not None:
                    # Inlined flat-path _store: the per-call overhead would
                    # dominate a bulk load.
                    for sub_id, rect_ranges in groups[signature]:
                        rects[sub_id] = rect_ranges
                        slot_of[sub_id] = next_slot
                        id_of[next_slot] = sub_id
                        rect_of_slot[next_slot] = rect_ranges
                        bulk.append((next_slot, runs))
                        next_slot += 1
                        runs_stored += num_runs
                else:
                    for sub_id, rect_ranges in groups[signature]:
                        self._store(sub_id, rect_ranges, runs)
        if flat is not None:
            self.stats.inserts += next_slot - self._next_slot
            self.stats.runs_stored += runs_stored
            self._next_slot = next_slot
            if bulk:
                flat.add_bulk(bulk)

    def remove(self, sub_id: Hashable) -> bool:
        """Drop a subscription from the index; return True when it was present."""
        if self._flat is not None:
            slot = self._slot_of.pop(sub_id, None)
            if slot is None:
                return False
            del self._rects[sub_id]
            del self._id_of[slot]
            del self._rect_of_slot[slot]
            removed_runs = self._flat.remove(slot)
            self.stats.removals += 1
            self.stats.runs_stored -= removed_runs
            return True
        runs = self._ranges.pop(sub_id, None)
        if runs is None:
            return False
        del self._rects[sub_id]
        for lo, hi in runs:
            self._remove_range(lo, hi, sub_id)
        self.stats.removals += 1
        self.stats.runs_stored -= len(runs)
        return True

    def _coarsen(self, runs: List[KeyRange]) -> Tuple[Tuple[KeyRange, ...], bool]:
        """Over-approximate ``runs`` down to at most ``run_budget`` ranges.

        Closes the smallest gaps first, so the number of spurious keys added —
        and with it the false-positive rate the fallback check must absorb —
        is minimal for the chosen budget.  Returns the runs as an immutable
        tuple (it may be shared through the run cache) and whether the budget
        forced any gap closed.
        """
        if len(runs) <= self.run_budget:
            return tuple(runs), False
        gaps = sorted(
            range(len(runs) - 1), key=lambda i: runs[i + 1][0] - runs[i][1]
        )
        close = set(gaps[: len(runs) - self.run_budget])
        coarsened: List[KeyRange] = []
        current_lo, current_hi = runs[0]
        for i in range(1, len(runs)):
            if i - 1 in close:
                current_hi = runs[i][1]
            else:
                coarsened.append((current_lo, current_hi))
                current_lo, current_hi = runs[i]
        coarsened.append((current_lo, current_hi))
        return tuple(coarsened), True

    # ----------------------------------------------------- segment maintenance
    def _overlapping(self, lo: int, hi: int) -> List[Tuple[int, _Segment]]:
        """Return the stored segments intersecting ``[lo, hi]`` in key order."""
        overlapping: List[Tuple[int, _Segment]] = []
        for seg_hi, segment in self._segments.items_in_range(lo, self.universe.max_key):
            if segment.lo > hi:
                break
            overlapping.append((seg_hi, segment))
        return overlapping

    def _insert_range(self, lo: int, hi: int, sub_id: Hashable) -> None:
        overlapping = self._overlapping(lo, hi)
        # Segments fully inside the range only gain a member: mutate their
        # sets in place.  Backend deletes/inserts are needed only for the at
        # most two segments straddling the range endpoints and for the gap
        # segments the range newly populates, keeping structural ordered-map
        # work O(gaps + 2) instead of O(overlapping segments).
        to_delete: List[int] = []
        rebuilt: List[Tuple[int, int, Set[Hashable]]] = []
        cursor = lo
        for seg_hi, segment in overlapping:
            mid_lo = max(segment.lo, lo)
            if cursor < mid_lo:
                # Gap between covered segments belongs to the new range alone.
                rebuilt.append((cursor, mid_lo - 1, {sub_id}))
            mid_hi = min(seg_hi, hi)
            if segment.lo >= lo and seg_hi <= hi:
                segment.subs.add(sub_id)
            else:
                to_delete.append(seg_hi)
                if segment.lo < lo:
                    rebuilt.append((segment.lo, lo - 1, set(segment.subs)))
                rebuilt.append((mid_lo, mid_hi, set(segment.subs) | {sub_id}))
                if seg_hi > hi:
                    rebuilt.append((hi + 1, seg_hi, set(segment.subs)))
            cursor = mid_hi + 1
        if cursor <= hi:
            rebuilt.append((cursor, hi, {sub_id}))
        for seg_hi in to_delete:
            self._segments.delete(seg_hi)
        for seg_lo, seg_hi, subs in rebuilt:
            self._segments.insert(seg_hi, _Segment(seg_lo, subs))

    def _remove_range(self, lo: int, hi: int, sub_id: Hashable) -> None:
        # Segments were split at this range's endpoints on insertion and later
        # operations only split further, so any segment containing sub_id lies
        # fully inside [lo, hi]; straddling segments belong to other
        # subscriptions and pass through untouched.
        survivors: List[Tuple[int, int, _Segment]] = []
        for seg_hi, segment in self._overlapping(lo, hi):
            if segment.lo >= lo and seg_hi <= hi:
                segment.subs.discard(sub_id)
                if not segment.subs:
                    self._segments.delete(seg_hi)
                    continue
            survivors.append((segment.lo, seg_hi, segment))
        # Re-coalesce adjacent fragments left identical by the removal so
        # churn does not permanently fragment the key space.
        index = 0
        while index + 1 < len(survivors):
            lo_a, hi_a, seg_a = survivors[index]
            lo_b, hi_b, seg_b = survivors[index + 1]
            if hi_a + 1 == lo_b and seg_a.subs == seg_b.subs:
                self._segments.delete(hi_a)
                self._segments.delete(hi_b)
                merged = _Segment(lo_a, seg_a.subs)
                self._segments.insert(hi_b, merged)
                survivors[index + 1] = (lo_a, hi_b, merged)
            index += 1

    # ----------------------------------------------------------------- queries
    _EMPTY: FrozenSet[Hashable] = frozenset()

    def _stab(self, key: int):
        """Candidates of the segment containing ``key``.

        Flat backend: one ``bisect`` in the parallel arrays, yielding interned
        slots.  Ordered-map backends: one ``first_in_range`` probe — segments
        are disjoint, so the segment with the smallest upper endpoint
        ``>= key`` is the only one that can contain ``key``; yields
        subscription ids.  Callers must not mutate the returned collection.
        """
        self.stats.lookups += 1
        if self._flat is not None:
            return self._flat.stab(key)
        hit = self._segments.first_in_range(key, self.universe.max_key)
        if hit is None:
            return self._EMPTY
        _, segment = hit
        if segment.lo > key:
            return self._EMPTY
        return segment.subs

    def candidates(self, key: int) -> FrozenSet[Hashable]:
        """Subscriptions whose stored (possibly coarsened) runs contain ``key``."""
        if self._flat is not None:
            return frozenset(self._id_of[slot] for slot in self._stab(key))
        return frozenset(self._stab(key))

    def _rect_contains(self, sub_id: Hashable, cells: Sequence[int]) -> bool:
        for (lo, hi), cell in zip(self._rects[sub_id], cells):
            if not lo <= cell <= hi:
                return False
        return True

    # The flat paths below inline the rectangle test as an early-exit
    # ``for ... else`` loop: it runs once per candidate, and ``all()`` over a
    # generator costs about twice as much.
    @profiled("match_index.any_match")
    def any_match(self, cells: Sequence[int], key: Optional[int] = None) -> bool:
        """True when at least one indexed subscription matches the event cells."""
        if key is None:
            key = self.curve.key(cells)
        stats = self.stats
        if self._flat is not None:
            rect_of_slot = self._rect_of_slot
            for slot in self._flat.stab(key):
                stats.candidates_checked += 1
                for (lo, hi), cell in zip(rect_of_slot[slot], cells):
                    if not lo <= cell <= hi:
                        stats.false_positives += 1
                        break
                else:
                    stats.lookups += 1
                    return True
            stats.lookups += 1
            return False
        for sub_id in self._stab(key):
            stats.candidates_checked += 1
            if self._rect_contains(sub_id, cells):
                return True
            stats.false_positives += 1
        return False

    @profiled("match_index.matching_ids")
    def matching_ids(self, cells: Sequence[int], key: Optional[int] = None) -> List[Hashable]:
        """All indexed subscriptions matching the event cells (order unspecified)."""
        if key is None:
            key = self.curve.key(cells)
        matched: List[Hashable] = []
        stats = self.stats
        if self._flat is not None:
            rect_of_slot = self._rect_of_slot
            id_of = self._id_of
            for slot in self._flat.stab(key):
                stats.candidates_checked += 1
                for (lo, hi), cell in zip(rect_of_slot[slot], cells):
                    if not lo <= cell <= hi:
                        stats.false_positives += 1
                        break
                else:
                    matched.append(id_of[slot])
            stats.lookups += 1
            return matched
        for sub_id in self._stab(key):
            stats.candidates_checked += 1
            if self._rect_contains(sub_id, cells):
                matched.append(sub_id)
            else:
                stats.false_positives += 1
        return matched

    # ------------------------------------------------------------ batch queries
    def any_match_batch(
        self,
        cells_batch: Sequence[Sequence[int]],
        keys: Optional[Sequence[int]] = None,
    ) -> List[bool]:
        """Per-event :meth:`any_match` for a batch, keyed in one vectorized pass."""
        if keys is None:
            keys = self.curve.keys(cells_batch)
        return [
            self.any_match(cells, key) for cells, key in zip(cells_batch, keys)
        ]

    def matching_ids_batch(
        self,
        cells_batch: Sequence[Sequence[int]],
        keys: Optional[Sequence[int]] = None,
    ) -> List[List[Hashable]]:
        """Per-event :meth:`matching_ids` for a batch, keyed in one vectorized pass."""
        if keys is None:
            keys = self.curve.keys(cells_batch)
        return [
            self.matching_ids(cells, key) for cells, key in zip(cells_batch, keys)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MatchIndex(subscriptions={len(self)}, segments={self.segment_count()}, "
            f"run_budget={self.run_budget})"
        )
