"""The SFC array: points stored in space-filling-curve key order.

The paper's only data structure (Section 2, Section 5): input points are
sorted by the key of the cell containing them and kept in a dynamic ordered
structure.  A *run* — a contiguous segment of keys — can then be examined for
emptiness with two binary searches, which is why the cost of a query is the
number of runs touched rather than the volume covered.

:class:`SFCArray` stores ``(item_id, point)`` pairs under their curve keys.
Multiple items may share a cell (identical subscriptions map to the same
point), so each key holds a small bucket.  The occupied keys are one sorted
Python list, probed by ``bisect``: at the few thousand points the paper's
drivers store, an insertion's ``O(n)`` shift is a C-speed ``memmove``.

Instrumentation: the array counts range probes and items scanned so that
benchmarks can report the work done by approximate vs exhaustive queries in
structure-independent units.

:class:`FlatSegmentStore` is the match side's store: disjoint key segments
labelled with the subscriptions whose runs cover them.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass
from itertools import chain
from math import sqrt
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..sfc.base import KeyRange, SpaceFillingCurve
from ..sfc.runs import merge_key_ranges

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


class SFCArray:
    """Points indexed in SFC key order: one sorted list of occupied keys.

    ``_keys`` holds every occupied curve key once, ascending; ``_buckets``
    maps each of them to its items (``item_id -> StoredItem``, in insertion
    order).  A key enters the list when its first item arrives and leaves it
    when its last one does, so every probe is a ``bisect`` on ``_keys``.
    """

    def __init__(self, curve: SpaceFillingCurve) -> None:
        self.curve = curve
        self.universe = curve.universe
        self._keys: List[int] = []
        self._buckets: Dict[int, Dict[Hashable, StoredItem]] = {}
        self._key_of_item: Dict[Hashable, int] = {}
        self.stats = SFCArrayStats()

    # ---------------------------------------------------------------- updates
    def __len__(self) -> int:
        return len(self._key_of_item)

    def __contains__(self, item_id: Hashable) -> bool:
        return item_id in self._key_of_item

    def add(self, item_id: Hashable, point: Sequence[int]) -> int:
        """Insert an item at ``point``; returns the curve key it was stored under.

        Re-adding an existing ``item_id`` moves it to the new point, at the
        end of that point's bucket.
        """
        pt = self.universe.validate_point(point)
        if item_id in self._key_of_item:
            self.remove(item_id)
        key = self.curve.key(pt)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = {}
            bisect.insort(self._keys, key)
        bucket[item_id] = StoredItem(item_id, pt)
        self._key_of_item[item_id] = key
        self.stats.inserts += 1
        return key

    def remove(self, item_id: Hashable) -> bool:
        """Remove an item by id; return True when it was present."""
        key = self._key_of_item.pop(item_id, None)
        if key is None:
            return False
        bucket = self._buckets[key]
        del bucket[item_id]
        if not bucket:
            del self._buckets[key]
            del self._keys[bisect.bisect_left(self._keys, key)]
        self.stats.deletes += 1
        return True

    # ---------------------------------------------------------------- queries
    def first_in_key_range(self, key_range: KeyRange) -> Optional[StoredItem]:
        """Return any one item whose key lies in the inclusive range, or ``None``.

        This is the run-emptiness probe of the paper: a binary search in
        the ordered structure, independent of how many cells the run spans.
        """
        low, high = key_range
        self.stats.range_probes += 1
        keys = self._keys
        i = bisect.bisect_left(keys, low)
        if i == len(keys) or keys[i] > high:
            return None
        # Buckets are never left empty, so next(iter(...)) is safe.
        return next(iter(self._buckets[keys[i]].values()))

    def first_probe_hit(
        self,
        los: Sequence[int],
        his: Sequence[int],
        exclude: Optional[Hashable] = None,
    ) -> Optional[Tuple[int, StoredItem]]:
        """First hit of a probe schedule: ``(probe index, item)`` or ``None``.

        Probe ``p`` is the inclusive key range ``[los[p], his[p]]``; the
        ranges may overlap and come in any order.  The probes run in
        order, one ``bisect`` each, up to the first that holds a stored key:
        the answer, and the advance of ``stats.range_probes`` (``p + 1`` on a
        hit at probe ``p``, ``len(los)`` on a miss), are those of calling
        :meth:`first_in_key_range` on each probe in turn.

        ``exclude`` names a stored item the loop treats as absent: the answer
        is that of the array without it, and the array is left untouched (a
        removal and re-insertion would move the item to the end of its
        bucket, changing which of two identical points later probes report).
        A key whose bucket holds nothing but that item is skipped; in a
        shared bucket the item is passed over.
        """
        keys, buckets = self._keys, self._buckets
        occupied = len(keys)
        bisect_left = bisect.bisect_left
        hidden = -1
        excluded_key = self._key_of_item.get(exclude) if exclude is not None else None
        if excluded_key is not None and len(buckets[excluded_key]) == 1:
            hidden = excluded_key
        for probe, (low, high) in enumerate(zip(los, his)):
            i = bisect_left(keys, low)
            if i < occupied and keys[i] == hidden:
                i += 1
            if i < occupied and keys[i] <= high:
                self.stats.range_probes += probe + 1
                items = iter(buckets[keys[i]].values())
                witness = next(items)
                if excluded_key is not None and witness.item_id == exclude:
                    witness = next(items)
                return probe, witness
        self.stats.range_probes += len(los)
        return None

    def items_in_key_range(self, key_range: KeyRange) -> Iterator[StoredItem]:
        """Yield every item whose key lies in the inclusive range, in key order."""
        low, high = key_range
        self.stats.range_scans += 1
        keys = self._keys
        for key in keys[bisect.bisect_left(keys, low) : bisect.bisect_right(keys, high)]:
            for stored in self._buckets[key].values():
                self.stats.items_scanned += 1
                yield stored

    def items(self) -> Iterator[StoredItem]:
        """Yield every stored item in curve-key order, each bucket in insertion order."""
        for key in self._keys:
            yield from self._buckets[key].values()

    def keys(self) -> Iterator[int]:
        """Yield the distinct occupied curve keys in ascending order."""
        return iter(self._keys)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SFCArray(curve={self.curve.name}, items={len(self)})"


class FlatSegmentStore:
    """Disjoint key segments in parallel sorted arrays (the match-index hot path).

    The store maps integer *slots* (interned subscription ids) to sets of
    inclusive key runs and answers stabbing queries: "which slots have a run
    containing key ``k``?".  Instead of one map node per segment it
    keeps the segments' lower and upper bounds in two parallel sorted lists
    and all their members in one typed array (``array('q')`` of slots) with a
    cut list beside it — segment ``i`` holds ``members[cuts[i]:cuts[i + 1]]``,
    slots in insertion order — built in one boundary sweep over every live
    run.  A stab (:meth:`stab`) is then a single ``bisect`` on the upper
    bounds and one slice; it answers for the flattened slots only.

    Updates are staged, LSM-style, one entry per *slot*:

    * **inserts** park the slot's (immutable, sorted) run tuple in a pending
      buffer (:attr:`staged`), which a stab does not look at: the match
      index tests every staged slot with the rectangle test it gives each
      stab candidate anyway.  A *merge-rebuild* re-sweeps all live runs into
      a fresh layout when either side has paid for it (below);
    * **removals** of flattened slots only tombstone the slot (a stab still
      lists it; the match index skips it because the slot has no rectangle
      left); compaction rebuilds once the tombstones outnumber the flattened
      slots still alive, i.e. once more than half of what the arrays hold is
      garbage.  Removals of still-pending slots drop the buffer entry and
      leave no garbage at all.

    When to flatten is one cost model, counted in rectangle tests
    (``experiments/flat_store_costs.py`` measures the unit costs and prints
    the two constants below as their ratios).  A staged slot costs every
    probe one test; a flatten of ``R`` stored runs costs
    :meth:`flatten_price` = :data:`FLATTEN_TESTS` + :data:`RUN_TESTS` · ``R``
    tests' worth of sweep.  Staging is rent-or-buy: each probe charges the
    staged tests it made (:meth:`charge`), and the probe whose charge brings
    the rent since the last flatten up to the price flattens (the caller
    does: :meth:`rebuild`, or a re-flatten on a finer grid).  Each write
    between probes stages one more slot, so for ``r`` probes per write the
    rent reaches the price ``F`` after ``√(2·F/r)`` writes, and rent plus
    sweep cost :meth:`staging_tests` = ``√(2·r·F)`` tests per write.
    Writes keep a ceiling that does not wait for probes: once more than
    :data:`PENDING_SLOTS` + 1/:data:`PENDING_SHARE` of the flattened slots
    are pending, the add rebuilds (the buffer bound grows with the
    structure, so the rebuild work per insert stays bounded).  A
    write-heavy table (``r`` ≲ 2 on the gated workloads) reaches that
    ceiling first and rebuilds where the ceiling alone did; a table probed
    on every publish (``r`` ≈ 100) flattens after two or three writes, on a
    publish instead of a subscribe.

    The sweep runs on numpy arrays at every table size (:meth:`_sweep_numpy`;
    the Python event loop :meth:`_sweep_python` takes the keys numpy cannot
    hold and gives the identical layout).

    Bulk loading (:meth:`add_bulk`) stages every subscription and performs a
    single sweep, which is how a million-subscription index is built in one
    pass.
    """

    #: Pending slots a store of any size may hold before an add rebuilds, and
    #: the share of the flattened slots that may be pending beside them: the
    #: write-side ceiling of staging.
    PENDING_SLOTS = 16
    PENDING_SHARE = 8
    #: The price of one flatten in rectangle tests on staged slots: a fixed
    #: part, and a part per stored run (``c_fix / c_test`` and
    #: ``c_run / c_test`` of ``experiments/flat_store_costs.py``).
    FLATTEN_TESTS = 108
    RUN_TESTS = 0.7

    def __init__(self) -> None:
        self._runs: Dict[int, Tuple[KeyRange, ...]] = {}
        self._los: List[int] = []
        self._his: List[int] = []
        self._cuts: List[int] = [0]
        self._members = array("q")
        #: Slots in the pending buffer with their runs, in insertion order
        #: (read-only for callers; a rebuild empties it).
        self.staged: Dict[int, Tuple[KeyRange, ...]] = {}
        self._dead: set = set()
        #: Live runs stored, staged ones included (what a rebuild sweeps).
        self.runs = 0
        #: Staged tests charged since the last flatten.
        self.rent = 0
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
        return len(self._runs) - len(self.staged) + len(self._dead)

    @staticmethod
    def _normalize_runs(runs: Sequence[KeyRange]) -> Tuple[KeyRange, ...]:
        """Disjoint sorted runs: the boundary sweep assumes a slot's own runs
        never overlap (overlaps would drop the slot early).  The match index
        always hands over already-merged run tuples, so the common case is a
        cheap monotonicity check that returns the very tuple it was given.
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
        self._runs[slot] = self.staged[slot] = stored = self._normalize_runs(runs)
        self.runs += len(stored)
        if (
            len(self.staged)
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
            # Bulk loaders hand the same runs object to every slot sharing a
            # decomposition; a run of such slots normalises it once and
            # shares the tuple.
            if runs is not last_runs:
                last_runs = runs
                last_norm = normalize(runs)
            stored[slot] = last_norm
        self.runs = sum(map(len, stored.values()))
        self.rebuild()

    def reflatten(self, items: Iterable[Tuple[int, Sequence[KeyRange]]]) -> None:
        """Give every stored slot new runs and flatten them all in one sweep.

        ``items`` names each stored slot exactly once, in any order; the slots
        keep their insertion order, and with it every segment its member
        order.  Staged slots and tombstones are swept away with the rest.
        """
        fresh = dict(items)
        if fresh.keys() != self._runs.keys():
            raise ValueError("reflatten needs new runs for exactly the stored slots")
        normalize = self._normalize_runs
        self._runs = {slot: normalize(fresh[slot]) for slot in self._runs}
        self.runs = sum(map(len, self._runs.values()))
        self.rebuild()

    def remove(self, slot: int) -> int:
        """Drop a slot; returns the number of runs it had (0 when absent)."""
        runs = self._runs.pop(slot, None)
        if runs is None:
            return 0
        self.runs -= len(runs)
        if self.staged.pop(slot, None) is None:
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
        the member order.  ``None`` (the caller sweeps in Python) when a key
        is wider than 64 bits or a run ends at ``2**64 - 1``: the sweep works
        on exclusive ends, and ``uint64`` arithmetic would silently wrap that
        one to 0.  numpy is imported here, on the first sweep, so a process
        whose tables all scan never loads it.
        """
        import numpy as np

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

    def rebuild(self) -> None:
        """Flatten every live run into a fresh layout (one boundary sweep).

        The array sweep does it whatever the table size; the Python sweep
        takes the keys it declines and produces the identical layout, members
        of a segment in slot insertion order — so every downstream iteration
        is deterministic under hash randomisation and the same on either
        sweep.
        """
        layout = self._sweep_numpy()
        if layout is None:
            layout = self._sweep_python()
        self._los, self._his, self._cuts, self._members = layout
        self.staged = {}
        self._dead.clear()
        self.rent = 0
        self.member_entries = len(self._members)
        self.rebuilds += 1

    # ------------------------------------------------------------ cost model
    @classmethod
    def flatten_price(cls, runs: int) -> float:
        """What a flatten of ``runs`` stored runs costs, in rectangle tests."""
        return cls.FLATTEN_TESTS + cls.RUN_TESTS * runs

    @classmethod
    def staging_tests(cls, runs: int, probes_per_write: float) -> float:
        """Rectangle tests per write that rent-or-buy staging costs: ``√(2·r·F)``.

        With ``r`` probes per write, the ``k``-th write since a flatten
        leaves ``k`` slots staged for ``r`` probes, so the rent reaches the
        price ``F`` of a flatten of ``runs`` runs after ``k = √(2·F/r)``
        writes; rent plus price is ``2·F`` per ``k`` writes.
        """
        return sqrt(2.0 * probes_per_write * cls.flatten_price(runs))

    def charge(self, tests: int) -> bool:
        """Charge a probe's ``tests`` on staged slots; True once the rent pays a flatten.

        The caller flattens on True (:meth:`rebuild`, which zeroes the rent,
        or a re-flatten on a new grid).
        """
        # flatten_price, inlined: this runs on most probes of a busy table.
        self.rent += tests
        return self.rent >= self.FLATTEN_TESTS + self.RUN_TESTS * self.runs

    # ---------------------------------------------------------------- queries
    def stab(self, key: int) -> Sequence[int]:
        """The flattened slots whose runs contain ``key``, in slot insertion order.

        One ``bisect`` on the upper bounds and one slice of the member array.
        The slice still lists tombstoned slots, and the slots in
        :attr:`staged` are not in it: the live slots whose runs hold ``key``
        are the slice minus the tombstones plus the staged slots whose runs
        hold it.  The match index needs neither filter, because it tests
        every slot it is handed against that slot's rectangle, and a removed
        slot has no rectangle left.
        """
        his = self._his
        idx = bisect.bisect_left(his, key)
        if idx < len(his) and self._los[idx] <= key:
            cuts = self._cuts
            return self._members[cuts[idx] : cuts[idx + 1]]
        return ()

    def segment_count(self) -> int:
        """Structure size: flattened segments plus still-pending runs."""
        return len(self._his) + sum(len(runs) for runs in self.staged.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlatSegmentStore(slots={len(self._runs)}, segments={len(self._his)}, "
            f"pending={len(self.staged)}, rebuilds={self.rebuilds})"
        )
