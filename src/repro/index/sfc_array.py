"""The SFC array: points stored in space-filling-curve key order.

The paper's only data structure (Section 2, Section 5): input points are
sorted by the key of the cell containing them and kept in a dynamic ordered
structure.  A *run* — a contiguous segment of keys — can then be examined for
emptiness with two binary searches, which is why the cost of a query is the
number of runs touched rather than the volume covered.

:class:`SFCArray` stores ``(item_id, point)`` pairs under their curve keys.
Multiple items may share a cell (identical subscriptions map to the same
point), so each key holds a small bucket.  The ordered-map backend is
pluggable (skip list / AVL tree / sorted list) via
:mod:`repro.index.backends`.

Instrumentation: the array counts range probes and items scanned so that
benchmarks can report the work done by approximate vs exhaustive queries in
backend-independent units.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..obs.profiler import profiled
from ..sfc import vectorized
from ..sfc.base import KeyRange, SpaceFillingCurve
from ..sfc.runs import merge_key_ranges
from .backends import OrderedMapBackend, make_backend

__all__ = ["SFCArray", "SFCArrayStats", "StoredItem", "FlatSegmentStore"]

#: What a sweep of :class:`FlatSegmentStore` produces: segment lower bounds,
#: segment upper bounds, cuts and members (see the class docstring).
_Layout = Tuple[List[int], List[int], List[int], array]

#: The largest key whose exclusive end still fits the array sweep's ``uint64``.
_MAX_SWEEP_KEY = (1 << 64) - 2


@dataclass(frozen=True)
class StoredItem:
    """An entry of the SFC array: an opaque identifier and its cell."""

    item_id: Hashable
    point: Tuple[int, ...]


@dataclass
class SFCArrayStats:
    """Operation counters used by benchmarks and tests."""

    inserts: int = 0
    deletes: int = 0
    range_probes: int = 0
    range_scans: int = 0
    items_scanned: int = 0

    def reset(self) -> None:
        self.inserts = 0
        self.deletes = 0
        self.range_probes = 0
        self.range_scans = 0
        self.items_scanned = 0


@dataclass
class _Bucket:
    """All items that map to the same cell (and therefore the same key)."""

    items: Dict[Hashable, StoredItem] = field(default_factory=dict)


class SFCArray:
    """Points indexed in SFC key order with pluggable ordered-map backend."""

    def __init__(
        self,
        curve: SpaceFillingCurve,
        backend: str | OrderedMapBackend = "avl",
        seed: Optional[int] = None,
    ) -> None:
        self.curve = curve
        self.universe = curve.universe
        if isinstance(backend, str):
            self._backend: OrderedMapBackend = make_backend(backend, seed=seed)
            self.backend_name = backend
        else:
            self._backend = backend
            self.backend_name = type(backend).__name__
        self._key_of_item: Dict[Hashable, int] = {}
        self.stats = SFCArrayStats()

    # ---------------------------------------------------------------- updates
    def __len__(self) -> int:
        return len(self._key_of_item)

    def __contains__(self, item_id: Hashable) -> bool:
        return item_id in self._key_of_item

    def add(self, item_id: Hashable, point: Sequence[int]) -> int:
        """Insert an item at ``point``; returns the curve key it was stored under.

        Re-adding an existing ``item_id`` moves it to the new point.
        """
        pt = self.universe.validate_point(point)
        if item_id in self._key_of_item:
            self.remove(item_id)
        key = self.curve.key(pt)
        bucket: Optional[_Bucket] = self._backend.get(key)
        if bucket is None:
            bucket = _Bucket()
            self._backend.insert(key, bucket)
        bucket.items[item_id] = StoredItem(item_id, pt)
        self._key_of_item[item_id] = key
        self.stats.inserts += 1
        return key

    def remove(self, item_id: Hashable) -> bool:
        """Remove an item by id; return True when it was present."""
        key = self._key_of_item.pop(item_id, None)
        if key is None:
            return False
        bucket: Optional[_Bucket] = self._backend.get(key)
        if bucket is not None:
            bucket.items.pop(item_id, None)
            if not bucket.items:
                self._backend.delete(key)
        self.stats.deletes += 1
        return True

    def point_of(self, item_id: Hashable) -> Optional[Tuple[int, ...]]:
        """Return the point at which ``item_id`` is stored, or ``None``."""
        key = self._key_of_item.get(item_id)
        if key is None:
            return None
        bucket: Optional[_Bucket] = self._backend.get(key)
        if bucket is None:
            return None
        stored = bucket.items.get(item_id)
        return stored.point if stored is not None else None

    # ---------------------------------------------------------------- queries
    def first_in_key_range(self, key_range: KeyRange) -> Optional[StoredItem]:
        """Return any one item whose key lies in the inclusive range, or ``None``.

        This is the run-emptiness probe of the paper: two binary searches in
        the ordered structure, independent of how many cells the run spans.
        """
        low, high = key_range
        self.stats.range_probes += 1
        hit = self._backend.first_in_range(low, high)
        if hit is None:
            return None
        _, bucket = hit
        # Buckets are never left empty, so next(iter(...)) is safe.
        return next(iter(bucket.items.values()))

    def first_probe_hit(
        self,
        los: Sequence[int],
        his: Sequence[int],
        probe_of_row: Sequence[int],
        row_of_probe: Sequence[int],
    ) -> Optional[Tuple[int, StoredItem]]:
        """First hit of a whole probe schedule: ``(probe index, item)`` or ``None``.

        The schedule is a table of pairwise disjoint inclusive key ranges
        sorted by key (row ``r`` is ``[los[r], his[r]]``) plus the search
        order over its rows (``probe_of_row`` and its inverse).  The answer,
        and the advance of ``stats.range_probes``, are those of calling
        :meth:`first_in_key_range` on the rows in search order up to the first
        hit.  It is computed as a join from the smaller side: an array with
        no more items than the table has rows bisects each stored key into
        the table and keeps the hit with the smallest probe index, then the
        smallest key (what that probe returns); otherwise the rows are probed
        in order.  Stored keys come from the item map, so the backend's
        pending and tombstoned keys never matter.  The keyed half is what
        lets an offline query over a 10^5–10^6-cube schedule finish in
        milliseconds; routing no longer reaches it (a link holding no more
        subscriptions than a plan has cubes is compared without a plan).
        """
        rows = len(los)
        if len(self._key_of_item) <= rows:
            probe, key = rows, -1
            for stored_key in self._key_of_item.values():
                row = bisect.bisect_left(his, stored_key)
                if row < rows and los[row] <= stored_key:
                    candidate = probe_of_row[row]
                    if candidate < probe or (candidate == probe and stored_key < key):
                        probe, key = candidate, stored_key
            bucket = self._backend.get(key) if probe < rows else None
        else:
            first_in_range = self._backend.first_in_range
            bucket = None
            for probe, row in enumerate(row_of_probe):
                hit = first_in_range(los[row], his[row])
                if hit is not None:
                    bucket = hit[1]
                    break
        if bucket is None:
            self.stats.range_probes += rows
            return None
        self.stats.range_probes += probe + 1
        return probe, next(iter(bucket.items.values()))

    def items_in_key_range(self, key_range: KeyRange) -> Iterator[StoredItem]:
        """Yield every item whose key lies in the inclusive range, in key order."""
        low, high = key_range
        self.stats.range_scans += 1
        for _, bucket in self._backend.items_in_range(low, high):
            for stored in bucket.items.values():
                self.stats.items_scanned += 1
                yield stored

    def count_in_key_range(self, key_range: KeyRange) -> int:
        """Return the number of items stored in the inclusive key range."""
        return sum(1 for _ in self.items_in_key_range(key_range))

    def items(self) -> Iterator[StoredItem]:
        """Yield every stored item in curve-key order."""
        for _, bucket in self._backend.items():
            yield from bucket.items.values()

    def keys(self) -> Iterator[int]:
        """Yield the distinct occupied curve keys in ascending order."""
        for key, _ in self._backend.items():
            yield key

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SFCArray(curve={self.curve.name}, backend={self.backend_name}, "
            f"items={len(self)})"
        )


class FlatSegmentStore:
    """Disjoint key segments in parallel sorted arrays (the match-index hot path).

    The store maps integer *slots* (interned subscription ids) to sets of
    inclusive key runs and answers stabbing queries: "which slots have a run
    containing key ``k``?".  Instead of one ordered-map node per segment it
    keeps the segments' lower and upper bounds in two parallel sorted lists
    and all their members in one typed array (``array('q')`` of slots) with a
    cut list beside it — segment ``i`` holds ``members[cuts[i]:cuts[i + 1]]``,
    slots in insertion order — built in one boundary sweep over every live
    run.  A stab is then a single ``bisect`` on the upper bounds and one
    slice.

    Updates are staged, LSM-style, one entry per *slot*:

    * **inserts** park the slot's (immutable, sorted) run tuple in a pending
      buffer; a stab bisects each pending slot's runs, so a pending slot
      costs one ``bisect`` however many runs it has.  Once more than
      :data:`PENDING_SLOTS` + 1/:data:`PENDING_SHARE` of the flattened slots
      are pending, a *merge-rebuild* re-sweeps all live runs into a fresh
      layout (the buffer bound grows with the structure, so the rebuild work
      per insert stays bounded);
    * **removals** of flattened slots only tombstone the slot (stabs filter
      against the tombstone set); compaction rebuilds once the tombstones
      outnumber the flattened slots still alive, i.e. once more than half of
      what the arrays hold is garbage.  Removals of still-pending slots drop
      the buffer entry and leave no garbage at all.

    The sweep runs on numpy arrays at every table size (:meth:`_sweep_numpy`;
    the Python event loop :meth:`_sweep_python` is its fallback and gives the
    identical layout).  Both thresholds are sized from measured costs (README,
    "Event-matching fast path"; ``experiments/flat_store_costs.py`` prints
    them): a rebuild costs 0.25–0.4 µs per run, ~20 µs per 64-run slot, a
    pending slot adds ~0.28 µs to every stab, so with at most ``P`` slots
    pending an add pays ``20·n/P`` µs and a stab ``0.14·P`` µs on average —
    balanced at ``P = √(143·n/r)`` ≈ 4–27 for 10–30-slot tables stabbed
    ``r`` = 6–100 times per write.  The cap of 17–20 slots those tables get
    was sized when a rebuild cost five times as much (balance at 9–60) and is
    still inside that range, where the sum is within a quarter of its
    minimum; it was left alone.

    Bulk loading (:meth:`add_bulk`) stages every subscription and performs a
    single sweep, which is how a million-subscription index is built in one
    pass.
    """

    #: Pending slots a store of any size may hold before it rebuilds, and the
    #: share of the flattened slots that may be pending beside them.
    PENDING_SLOTS = 16
    PENDING_SHARE = 8

    def __init__(self) -> None:
        self._runs: Dict[int, Tuple[KeyRange, ...]] = {}
        self._los: List[int] = []
        self._his: List[int] = []
        self._cuts: List[int] = [0]
        self._members = array("q")
        self._pending: Dict[int, Tuple[KeyRange, ...]] = {}
        self._dead: set = set()
        self.rebuilds = 0
        self.member_entries = 0

    # ---------------------------------------------------------------- updates
    def __len__(self) -> int:
        return len(self._runs)

    def __contains__(self, slot: int) -> bool:
        return slot in self._runs

    def runs_of(self, slot: int) -> Tuple[KeyRange, ...]:
        return self._runs[slot]

    def _flattened_slots(self) -> int:
        """Slots the flattened arrays hold, tombstoned ones included."""
        return len(self._runs) - len(self._pending) + len(self._dead)

    @staticmethod
    def _normalize_runs(runs: Sequence[KeyRange]) -> Tuple[KeyRange, ...]:
        """Disjoint sorted runs: the boundary sweep assumes a slot's own runs
        never overlap (overlaps would drop the slot early) and the pending
        buffer bisects them.  The match index always hands over
        already-merged run tuples, so the common case is a cheap monotonicity
        check that returns the very tuple it was given.
        """
        prev_hi = -1
        for lo, hi in runs:
            if lo > hi or (lo <= prev_hi and prev_hi >= 0):
                return tuple(merge_key_ranges(runs))
            prev_hi = hi
        return tuple(runs)

    def add(self, slot: int, runs: Sequence[KeyRange]) -> None:
        """Stage a slot's runs; the caller guarantees the slot is not present."""
        if slot in self._runs:
            raise ValueError(f"slot {slot} is already stored; remove it first")
        self._runs[slot] = self._pending[slot] = self._normalize_runs(runs)
        if (
            len(self._pending)
            > self.PENDING_SLOTS + self._flattened_slots() // self.PENDING_SHARE
        ):
            self.rebuild()

    def add_bulk(self, items: Iterable[Tuple[int, Sequence[KeyRange]]]) -> None:
        """Stage many slots and flatten them in a single sweep.

        The immediate rebuild makes the pending buffer redundant, so bulk
        loads skip it entirely — a million-subscription build pays one dict
        insert per slot plus the (vectorized where possible) sweep.
        """
        stored = self._runs
        normalize = self._normalize_runs
        last_runs = last_norm = None
        for slot, runs in items:
            if slot in stored:
                raise ValueError(f"slot {slot} is already stored; remove it first")
            # Bulk loaders hand the same runs object to every slot of a group
            # (subscriptions sharing a decomposition); normalise it once and
            # share the tuple across those slots.
            if runs is not last_runs:
                last_runs = runs
                last_norm = normalize(runs)
            stored[slot] = last_norm
        self.rebuild()

    def remove(self, slot: int) -> int:
        """Drop a slot; returns the number of runs it had (0 when absent)."""
        runs = self._runs.pop(slot, None)
        if runs is None:
            return 0
        if self._pending.pop(slot, None) is None:
            self._dead.add(slot)
            if len(self._dead) * 2 > self._flattened_slots():
                self.rebuild()
        return len(runs)

    def _sweep_numpy(self) -> Optional[_Layout]:
        """The boundary sweep on arrays, or ``None`` when it cannot run.

        Every run endpoint goes into one ``uint64`` array (``fromiter`` over
        the chained run tuples: no Python-level step per run).  The distinct
        sorted endpoints are the segment boundaries; a run covers the segments
        between its two endpoints' positions among them, so expanding each run
        into its segment indices (``repeat`` + ``arange``) and sorting the
        expansion stably by segment groups the members per segment.  Runs are
        expanded in slot insertion order and the sort is stable, so that is
        the member order.  ``None`` (the caller sweeps in Python) when numpy
        is unavailable, a key is wider than 64 bits, or a run ends at
        ``2**64 - 1``: the sweep works on exclusive ends, and ``uint64``
        arithmetic would silently wrap that one to 0.
        """
        np = vectorized.np
        if np is None:
            return None
        stored = self._runs
        counts = np.fromiter(map(len, stored.values()), dtype=np.int64, count=len(stored))
        try:
            # lo, hi, lo, hi, ... of every run, slot by slot.
            ends = np.fromiter(
                chain.from_iterable(chain.from_iterable(stored.values())),
                dtype=np.uint64,
                count=2 * int(counts.sum()),
            )
        except OverflowError:
            return None
        if not ends.size:
            return [], [], [0], array("q")
        exclusive = ends[1::2]
        if exclusive.max() > _MAX_SWEEP_KEY:
            return None
        exclusive += 1
        bounds = np.sort(ends)
        distinct = np.empty(bounds.size, dtype=bool)
        distinct[0] = True
        np.not_equal(bounds[1:], bounds[:-1], out=distinct[1:])
        bounds = bounds[distinct]
        positions = bounds.searchsorted(ends)
        starts = positions[0::2]
        spans = positions[1::2] - starts
        total = int(spans.sum())
        seg_idx = np.repeat(starts - (np.cumsum(spans) - spans), spans)
        seg_idx += np.arange(total, dtype=seg_idx.dtype)
        order = np.argsort(seg_idx, kind="stable")
        slots = np.fromiter(stored, dtype=np.int64, count=len(stored))
        members = np.repeat(np.repeat(slots, counts), spans)[order]
        sizes = np.bincount(seg_idx, minlength=bounds.size - 1)
        covered = np.flatnonzero(sizes)
        cuts = [0]
        cuts += np.cumsum(sizes[covered]).tolist()
        return (
            bounds[covered].tolist(),
            (bounds[covered + 1] - 1).tolist(),
            cuts,
            array("q", members.tobytes()),
        )

    def _sweep_python(self) -> _Layout:
        """The same sweep as an event loop over Python integers (any key width).

        Events are encoded as single integers
        ``(pos << (rank_bits+1)) | (flag << rank_bits) | rank`` so sorting is
        an int sort instead of a tuple sort; ``rank`` is the slot's place in
        insertion order.  ``flag`` is 0 for run ends and 1 for run starts,
        making ends at a position apply before starts (a slot whose runs abut
        would otherwise flicker).  A segment's members are its active ranks in
        ascending order: slot insertion order, as the numpy sweep emits them.
        """
        order = list(self._runs)
        rank_bits = max(1, len(order).bit_length())
        pos_shift = rank_bits + 1
        rank_mask = (1 << rank_bits) - 1
        start_bit = 1 << rank_bits
        events: List[int] = []
        for rank, runs in enumerate(self._runs.values()):
            for lo, hi in runs:
                events.append((lo << pos_shift) | start_bit | rank)
                events.append((hi + 1) << pos_shift | rank)
        events.sort()
        los: List[int] = []
        his: List[int] = []
        cuts = [0]
        ranks: List[int] = []
        active: set = set()
        prev = 0
        i, n = 0, len(events)
        while i < n:
            pos = events[i] >> pos_shift
            if active and prev < pos:
                los.append(prev)
                his.append(pos - 1)
                ranks += sorted(active)
                cuts.append(len(ranks))
            while i < n and (events[i] >> pos_shift) == pos:
                event = events[i]
                if event & start_bit:
                    active.add(event & rank_mask)
                else:
                    active.discard(event & rank_mask)
                i += 1
            prev = pos
        return los, his, cuts, array("q", map(order.__getitem__, ranks))

    @profiled("flat_store.rebuild")
    def rebuild(self) -> None:
        """Flatten every live run into a fresh layout (one boundary sweep).

        The array sweep does it whatever the table size; the Python sweep is
        its fallback and produces the identical layout, members of a segment
        in slot insertion order — so every downstream iteration is
        deterministic under hash randomisation and the same with and without
        numpy.
        """
        layout = self._sweep_numpy()
        if layout is None:
            layout = self._sweep_python()
        self._los, self._his, self._cuts, self._members = layout
        self._pending = {}
        self._dead.clear()
        self.member_entries = len(self._members)
        self.rebuilds += 1

    # ---------------------------------------------------------------- queries
    def stab(self, key: int) -> Iterator[int]:
        """Yield the live slots whose stored runs contain ``key``.

        One ``bisect`` on the flattened arrays (tombstones filtered lazily)
        plus one ``bisect`` per slot of the bounded pending buffer.  Lazy so
        that early-exiting callers (``any_match``) stop paying per candidate
        as soon as they confirm a hit.
        """
        his = self._his
        idx = bisect.bisect_left(his, key)
        if idx < len(his) and self._los[idx] <= key:
            cuts = self._cuts
            members = self._members[cuts[idx] : cuts[idx + 1]]
            dead = self._dead
            if dead:
                for slot in members:
                    if slot not in dead:
                        yield slot
            else:
                yield from members
        if self._pending:
            after = (key + 1,)  # sorts right after every run starting at or before ``key``
            for slot, runs in self._pending.items():
                idx = bisect.bisect_left(runs, after)
                if idx and runs[idx - 1][1] >= key:
                    yield slot

    def segment_count(self) -> int:
        """Structure size: flattened segments plus still-pending runs."""
        return len(self._his) + sum(len(runs) for runs in self._pending.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlatSegmentStore(slots={len(self._runs)}, segments={len(self._his)}, "
            f"pending={len(self._pending)}, rebuilds={self.rebuilds})"
        )
