"""SFC-keyed forwarding-match index: event matching as a single sorted-array probe.

Brokers answer "does any subscription stored on this interface match event
``p``?" for every event on every interface — the dominant cost of event
routing once an interface holds thousands of subscriptions.  The linear scan
in :class:`~repro.pubsub.routing_table.InterfaceTable` costs ``O(n)`` match
tests per event; this module brings the paper's SFC machinery to bear on that
hot path the same way Section 5 applies it to covering detection.

The idea: a subscription is a rectangle on the quantised attribute grid, and
by Fact 2.1 a rectangle decomposes into a bounded number of *runs* —
contiguous key segments of the Z curve.  An event is a single cell, i.e. a
single key.  "Event matches subscription" is exactly
"``key(p)`` lies inside one of the subscription's runs".  The index
therefore stores the runs of every
subscription, flattened into *disjoint* key segments each labelled with the
set of subscriptions whose runs cover it
(:class:`~repro.index.sfc_array.FlatSegmentStore`).  Because the segments are
disjoint, the segment containing ``key(p)`` — if any — is found by one
``bisect`` on the segments' upper endpoints (the segment with the smallest
upper endpoint ``>= key(p)``; the point is inside it iff the segment's lower
endpoint is ``<= key(p)``).

Three refinements keep the structure bounded and sound:

* **Precision-bounded decomposition, on a grid its table's reads and writes
  choose.**  Before decomposing, the rectangle is snapped outward to a grid of
  ``precision_bits`` bits per dimension (cubes of side
  ``2^{order - precision_bits}``), so the quadtree recursion bottoms out after
  ``precision_bits`` levels instead of descending to unit cells.  Snapping
  outward only ever *adds* cells.  A coarser grid never changes an answer
  (the rectangle test confirms every candidate) but lets more candidates
  through; a finer one costs runs: by Fact 2.1 a rectangle's run count grows
  about ``2^{d-1}``-fold per extra bit (stock subscriptions store 1.0 / 5.9 /
  19.1 / 51.0 runs at 1 / 2 / 3 / 4 bits), and every flatten sweeps them.
  Unless the config pins ``precision_bits``, one cost model settles that
  trade, counted in rectangle tests and capped at
  :meth:`~repro.index.config.IndexConfig.effective_precision_bits` (and at
  the schema's order, past which a finer grid changes nothing).  Its floor
  is the size rule: the coarsest grid giving each live subscription a cube
  of its own, the fewest bits ``b >= 1`` with ``2^{d·b} >= n`` for ``n``
  subscriptions; the add that takes ``n`` past ``2^{d·b}`` steps up to it,
  and a bulk load into an empty index picks it from the batch size.  Above
  the floor the grid steps up one bit only on a flatten a probe has paid for
  (staging's rent-or-buy, :class:`~repro.index.sfc_array.FlatSegmentStore`),
  when :func:`finer_grid_pays` on the table's own counts — probes per write,
  rejected stab candidates per probe on this grid, runs stored — says the
  tests its probes save exceed what the finer grid's runs add to staging.
  A table probed about once per write stays on the size rule; a local table
  probed on every publish steps from 2 to 3 bits and stops there.  The grid
  never steps down; a step re-derives every stored slot's runs and
  re-flattens the store in one sweep.  On a grid within the default
  precision budget (4,096 cubes) the runs are not decomposed at all but
  read off a :class:`~repro.sfc.runs.GridRunTable` — the same runs at a
  tenth of the cost, so a rectangle the run cache has not seen costs an
  insert about what a cached one does.
* **Run-budget coarsening.**  Thin rectangles can decompose into many runs
  (the aspect-ratio lower bound of Theorem 4.1), so per subscription the run
  list is over-approximated down to at most :attr:`MatchIndex.RUN_BUDGET`
  ranges by closing
  the smallest inter-run gaps.  Again, only ever adds keys, so no matching
  event can be missed.
* **Rectangle fallback check.**  A candidate produced by the segment probe may
  be a false positive of the coarsening (its over-approximated range contains
  ``key(p)`` but its rectangle does not contain ``p``).  Every candidate is
  therefore confirmed against its rectangle before being reported, which
  restores exactness.  The index keeps each rectangle packed
  (:func:`~repro.geometry.universe.pack_box`) and the event brings its cells
  packed (:attr:`~repro.pubsub.subscription.Event.point`), so the check is
  one integer expression, ``((P | G) - L) & ((H | G) - P) & G == G``, behind
  two plain comparisons that reject most misses; its cost does not grow with
  ``d`` (:mod:`repro.geometry.universe`).

Together: no false negatives (exact runs cover every matching key and
coarsening only widens them), no false positives (the rectangle check rejects
them) — the index is behaviourally identical to the linear scan while the
per-event cost is one ``bisect`` plus the candidates of one segment.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..core.decomposition import decompose_rectangle
from ..geometry.rect import Rectangle, StandardCube
from ..geometry.universe import PackedBox, Universe, pack_point, packed_guard, unpack_box
from ..index.config import PRECISION_BIT_BUDGET, IndexConfig
from ..index.sfc_array import FlatSegmentStore
from ..sfc.base import KeyRange
from ..sfc.runs import GridRunTable, merge_key_ranges
from ..sfc.zorder import ZOrderCurve
from .schema import AttributeSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .subscription_store import ProfileCache

__all__ = ["MatchIndex", "MatchIndexStats", "finer_grid_pays"]


@functools.lru_cache(maxsize=64)
def _grid_run_table(dims: int, order: int, bits: int) -> GridRunTable:
    """The process-wide run table of one (universe, precision grid)."""
    return GridRunTable(ZOrderCurve(Universe(dims=dims, order=order)), bits)


#: The share of a probe's rejected candidates one more grid bit is taken to
#: save.  A rectangle snapped outward gains under one coarse cell per side
#: and dimension; a finer bit halves that cell, and with it (to first order)
#: the volume the snap adds.
FINER_BIT_SAVES = 0.5


def finer_grid_pays(
    runs: int, finer_runs: int, reads_per_write: float, rejections_per_probe: float
) -> bool:
    """The grid half of the cost model: does one more bit per dimension pay?

    A table probed ``r = reads_per_write`` times per write, whose probes
    reject ``c = rejections_per_probe`` stab candidates each on the current
    grid, stores ``runs`` runs there and ``finer_runs`` on the next one.
    Per write, in rectangle tests, the finer bit saves ``FINER_BIT_SAVES ·
    r · c`` tests of probing and makes staging dearer by the rise of
    :meth:`~repro.index.sfc_array.FlatSegmentStore.staging_tests`,
    ``√(2·r·F)``, with the price ``F`` of a flatten of more runs.  A table
    probed about once per write never steps (its staging cost rises faster
    than its probes save); one probed on every publish steps while its
    rejections outweigh the runs.
    """
    staging = FlatSegmentStore.staging_tests
    rise = staging(finer_runs, reads_per_write) - staging(runs, reads_per_write)
    return FINER_BIT_SAVES * reads_per_write * rejections_per_probe > rise


@dataclass
class MatchIndexStats:
    """Operation counters (store-independent work units for benchmarks).

    ``runs_stored`` is the live total; ``coarsened_subscriptions`` counts
    every time a subscription's runs were stored coarsened, at insert or
    re-derived on a grid step.  ``probe_flattens`` counts the flattens a
    probe paid for (staging's rent-or-buy), grid steps among them.
    """

    inserts: int = 0
    removals: int = 0
    runs_stored: int = 0
    coarsened_subscriptions: int = 0
    lookups: int = 0
    candidates_checked: int = 0
    false_positives: int = 0
    probe_flattens: int = 0


class MatchIndex:
    """Point-stab index over the subscriptions of one interface.

    Parameters
    ----------
    schema:
        Attribute schema shared with the routing layer; fixes the grid
        (``d = num_attributes`` dimensions, ``2^order`` cells per side).
    config:
        The :class:`~repro.index.config.IndexConfig` (defaults to
        ``IndexConfig()``); the index reads its one field.  The
        disjoint segments live in one
        :class:`~repro.index.sfc_array.FlatSegmentStore` (parallel sorted
        arrays probed by ``bisect``, with bulk-load construction, a
        pending-run buffer and amortised merge-rebuilds).
        ``precision_bits`` pins the grid resolution (bits per dimension) at
        which rectangles are decomposed; schemas with a larger order have
        their rectangles snapped outward to this grid first.  ``None`` lets
        the grid grow with the table and its probes (module docstring) up to the
        budget-derived ceiling, which scales with dimensionality so the
        total decomposition work stays within :data:`~repro.index.config.PRECISION_BIT_BUDGET`; the
        current grid is :attr:`precision_bits`, and the cost model that
        moves it reads only :attr:`stats` and :attr:`staged_rejections`.
        The segments are keyed on the Z curve (:attr:`curve`).
    run_cache:
        Optional :class:`~repro.pubsub.subscription_store.ProfileCache`
        memoising each snapped rectangle's key runs.  A rectangle's runs are
        pure geometry, so every index handed the same cache (the brokers of a
        network share one) decomposes a rectangle once between them and
        stores the same immutable run tuple.  Answers, stored state and
        :attr:`stats` are identical with and without it.

    Each subscription stores at most :attr:`RUN_BUDGET` key runs (see the
    module docstring); the budget is a class constant, as
    :attr:`~repro.pubsub.routing_table.InterfaceTable.SCAN_LIMIT` is.
    """

    #: Cap on the key runs stored per subscription (Sec. 3.2 coarsening).
    RUN_BUDGET = 64

    def __init__(
        self,
        schema: AttributeSchema,
        config: Optional[IndexConfig] = None,
        run_cache: Optional["ProfileCache"] = None,
    ) -> None:
        config = config or IndexConfig()
        self.config = config
        self.schema = schema
        self.universe = Universe(dims=schema.num_attributes, order=schema.order)
        self.curve = ZOrderCurve(self.universe)
        self._run_cache = run_cache
        self.stats = MatchIndexStats()
        #: Rectangle tests of staged slots that rejected, so far.
        self.staged_rejections = 0
        # An explicit precision pins the grid; a derived one starts at the
        # coarsest grid and grows with the table up to the config's value
        # (no finer than the schema's own grid).
        self._ceiling = config.effective_precision_bits(self.universe.dims)
        if config.precision_bits is None:
            self._ceiling = min(self._ceiling, self.universe.order)
            self._set_precision(1)
        else:
            self._set_precision(self._ceiling)
        self._flat = FlatSegmentStore()
        # Subscription-id interning: the flat store works on integer slots so
        # its member arrays are machine-word arrays rather than object
        # tuples.  Slots are never reused.
        self._slot_of: Dict[Hashable, int] = {}
        self._id_of: Dict[int, Hashable] = {}
        # Each live slot's rectangle, packed: what the rectangle test reads.
        self._box_of_slot: Dict[int, PackedBox] = {}
        self._guard = packed_guard(self.universe.dims, self.universe.order)
        self._next_slot = 0

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, sub_id: Hashable) -> bool:
        return sub_id in self._slot_of

    def segment_count(self) -> int:
        """Number of disjoint key segments currently stored (structure size)."""
        return self._flat.segment_count()

    def event_key(self, cells: Sequence[int]) -> int:
        """Curve key of an event's quantised cell vector."""
        return self.curve.key(cells)

    # ----------------------------------------------------------------- updates
    def _validate_ranges(
        self, ranges: Sequence[Tuple[int, int]]
    ) -> Tuple[Tuple[Tuple[int, int], ...], PackedBox]:
        """The validated range tuple and its packed box, packed in the validating loop
        (the body of :func:`~repro.geometry.universe.pack_box`, inlined:
        a second pass per add is measurable on the subscribe path)."""
        if len(ranges) != self.universe.dims:
            raise ValueError(
                f"subscription has {len(ranges)} ranges but the schema "
                f"has {self.universe.dims} attributes"
            )
        max_cell = self.universe.max_coordinate
        guard_bit = max_cell + 1
        width = self.universe.order + 1
        out = []
        lows = highs = 0
        for lo, hi in ranges:
            lo = int(lo)
            hi = int(hi)
            if lo > hi or lo < 0 or hi > max_cell:
                raise ValueError(
                    f"invalid subscription range [{lo}, {hi}]; expected "
                    f"0 <= lo <= hi <= {max_cell}"
                )
            out.append((lo, hi))
            lows = lows << width | lo
            highs = highs << width | hi | guard_bit
        return tuple(out), (lows, highs)

    # --------------------------------------------------------------- precision
    def _bits_for(self, live: int) -> int:
        """The size rule: the grid for ``live`` subscriptions, in bits per dimension.

        The fewest bits ``b >= 1`` giving at least one grid cube per
        subscription (``2^(d·b) >= live``), capped at the ceiling.  It is
        the floor under the cost model's grid.
        """
        dims = self.universe.dims
        bits = 1
        while bits < self._ceiling and live > 1 << (dims * bits):
            bits += 1
        return bits

    def _set_precision(self, bits: int) -> None:
        """Decompose on a grid of ``bits`` bits per dimension from now on."""
        self.precision_bits = bits
        universe = self.universe
        effective = min(bits, universe.order)
        self._snap = 1 << (universe.order - effective)
        # Everything a snapped rectangle's stored runs depend on besides the
        # rectangle itself; namespaces this index's entries in the run cache.
        self._run_key = (
            universe.dims,
            universe.order,
            effective,
            self.RUN_BUDGET,
        )
        # Grids of at most 2^PRECISION_BIT_BUDGET cubes (every derived
        # precision; an explicit ``precision_bits`` may exceed it) read runs
        # off the shared table, fetched on the first uncached rectangle.
        self._tabulated = universe.dims * effective <= PRECISION_BIT_BUDGET
        self._grid_runs: Optional[GridRunTable] = None
        # The live count past which the size rule steps the grid up (never,
        # once at the ceiling: a pinned grid starts there).
        if bits < self._ceiling:
            self._grow_past = 1 << (universe.dims * bits)
        else:
            self._grow_past = float("inf")
        # Where the counts the cost model reads about this grid start:
        # (lookups, stab rejections) when it was set.
        self._grid_mark = (self.stats.lookups, self.stab_rejections())

    def _grow(self, bits: int) -> None:
        """Step the grid up to ``bits`` bits per dimension.

        Every stored slot's runs are re-derived on the finer grid (through the
        run cache; slots sharing a snapped rectangle share one derivation) and
        the store is re-flattened in one sweep.  Slots keep their order.
        """
        self._set_precision(bits)
        boxes = self._box_of_slot
        if not boxes:
            return
        dims, order = self.universe.dims, self.universe.order
        entries = self._derive([unpack_box(box, dims, order) for box in boxes.values()])
        self._flat.reflatten(zip(boxes, [runs for runs, _ in entries]))
        self.stats.runs_stored = sum([len(runs) for runs, _ in entries])
        self.stats.coarsened_subscriptions += sum([coarsened for _, coarsened in entries])

    def stab_rejections(self) -> int:
        """Rejected stab candidates so far: the rejections a finer grid can save
        (``false_positives`` less those of staged slots, which every probe
        tests whatever the grid)."""
        return self.stats.false_positives - self.staged_rejections

    def _flatten_paid(self) -> None:
        """Flatten on the probe whose staged tests have paid for it.

        This is where the grid may step up one bit (never more, never down),
        when :func:`finer_grid_pays` says so for probes per write over the
        index's life, stab rejections per probe since the grid was set, and
        the runs stored now and on the next bit (``2^(d-1)`` times as many,
        Fact 2.1, at most :attr:`RUN_BUDGET` per subscription).  The step
        re-flattens on the finer grid, so it is still one sweep.
        """
        stats = self.stats
        stats.probe_flattens += 1
        if self.precision_bits < self._ceiling:
            lookups, stab_rejections = self._grid_mark
            runs = stats.runs_stored
            if finer_grid_pays(
                runs,
                min(runs << (self.universe.dims - 1), self.RUN_BUDGET * len(self)),
                stats.lookups / max(stats.inserts + stats.removals, 1),
                (self.stab_rejections() - stab_rejections) / max(stats.lookups - lookups, 1),
            ):
                self._grow(self.precision_bits + 1)
                return
        self._flat.rebuild()

    def _derive(
        self, rects: Iterable[Tuple[Tuple[int, int], ...]]
    ) -> List[Tuple[Tuple[KeyRange, ...], bool]]:
        """``(stored runs, was coarsened)`` per rectangle, on the current grid.

        Rectangles sharing a snapped rectangle share one derivation (one
        :meth:`_runs_for` entry, not at all when the run cache holds it), in
        chunks of :attr:`BATCH_CHUNK` distinct snapped rectangles.
        """
        # The snap of _snap_signature, inlined: a million-subscription batch
        # cannot afford a function call per item.
        snap = self._snap
        if snap == 1:
            signatures = list(rects)
        else:
            signatures = [tuple([(lo // snap, hi // snap) for lo, hi in rect]) for rect in rects]
        entry_of = dict.fromkeys(signatures)
        distinct = list(entry_of)
        for start in range(0, len(distinct), self.BATCH_CHUNK):
            chunk = distinct[start : start + self.BATCH_CHUNK]
            entry_of.update(zip(chunk, self._runs_for(chunk)))
        return [entry_of[signature] for signature in signatures]

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
                table = self._grid_runs = _grid_run_table(*self._run_key[:3])
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

    def add(
        self,
        sub_id: Hashable,
        ranges: Sequence[Tuple[int, int]],
        box: Optional[PackedBox] = None,
    ) -> None:
        """Index a subscription's quantised per-attribute ranges (replacing any previous).

        Validation happens before any mutation, so a rejected replace leaves
        the previously stored entry intact.  ``box`` optionally hands over
        the ranges' packed box, as ``key`` and ``point`` hand an event's over
        to :meth:`matching_ids`: the caller vouches for both (a
        :class:`~repro.pubsub.subscription.Subscription`'s ``ranges`` and
        ``box`` on a compatible schema, as
        :meth:`~repro.pubsub.routing_table.InterfaceTable.add` passes them),
        and neither is validated or packed again.
        """
        if box is None:
            ranges, box = self._validate_ranges(ranges)
        if sub_id in self._slot_of:
            self.remove(sub_id)
        if len(self._slot_of) >= self._grow_past:
            self._grow(self._bits_for(len(self._slot_of) + 1))
        [(runs, coarsened)] = self._runs_for([self._snap_signature(ranges)])
        stats = self.stats
        stats.coarsened_subscriptions += coarsened
        slot = self._next_slot
        self._next_slot = slot + 1
        self._slot_of[sub_id] = slot
        self._id_of[slot] = sub_id
        self._box_of_slot[slot] = box
        stats.inserts += 1
        stats.runs_stored += len(runs)
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
        :meth:`SpaceFillingCurve.cube_key_ranges` call, and the whole batch
        is flattened by a single merge-rebuild.
        """
        # One fused validate + pack + dedup pass (the body mirrors
        # _validate_ranges; a million-subscription batch cannot afford a
        # function call per item).
        dims = self.universe.dims
        max_cell = self.universe.max_coordinate
        guard_bit = max_cell + 1
        width = self.universe.order + 1
        deduped: Dict[Hashable, Tuple[Tuple[int, int], ...]] = {}
        boxes: Dict[Hashable, PackedBox] = {}
        for sub_id, ranges in items:
            if len(ranges) != dims:
                raise ValueError(
                    f"subscription has {len(ranges)} ranges but the schema "
                    f"has {dims} attributes"
                )
            out = []
            lows = highs = 0
            for lo, hi in ranges:
                lo = int(lo)
                hi = int(hi)
                if lo > hi or lo < 0 or hi > max_cell:
                    raise ValueError(
                        f"invalid subscription range [{lo}, {hi}]; expected "
                        f"0 <= lo <= hi <= {max_cell}"
                    )
                out.append((lo, hi))
                lows = lows << width | lo
                highs = highs << width | hi | guard_bit
            # A later duplicate replaces an earlier one and, as a re-add
            # would, takes its place at the end.
            if sub_id in deduped:
                del deduped[sub_id]
            deduped[sub_id] = tuple(out)
            boxes[sub_id] = (lows, highs)
        slot_of = self._slot_of
        for sub_id in deduped:
            if sub_id in slot_of:
                self.remove(sub_id)
        if len(slot_of) + len(deduped) > self._grow_past:
            self._grow(self._bits_for(len(slot_of) + len(deduped)))
        # Slots in item order, as per-item adds would assign them (the body of
        # add, inlined: the per-call overhead would dominate a bulk load).
        stats = self.stats
        id_of = self._id_of
        box_of_slot = self._box_of_slot
        next_slot = self._next_slot
        runs_stored = coarsened_items = 0
        bulk: List[Tuple[int, Tuple[KeyRange, ...]]] = []
        for sub_id, (runs, coarsened) in zip(deduped, self._derive(deduped.values())):
            slot_of[sub_id] = next_slot
            id_of[next_slot] = sub_id
            box_of_slot[next_slot] = boxes[sub_id]
            bulk.append((next_slot, runs))
            next_slot += 1
            runs_stored += len(runs)
            coarsened_items += coarsened
        stats.coarsened_subscriptions += coarsened_items
        stats.inserts += next_slot - self._next_slot
        stats.runs_stored += runs_stored
        self._next_slot = next_slot
        if bulk:
            self._flat.add_bulk(bulk)

    def remove(self, sub_id: Hashable) -> bool:
        """Drop a subscription from the index; return True when it was present."""
        slot = self._slot_of.pop(sub_id, None)
        if slot is None:
            return False
        del self._id_of[slot]
        del self._box_of_slot[slot]
        removed_runs = self._flat.remove(slot)
        self.stats.removals += 1
        self.stats.runs_stored -= removed_runs
        return True

    def _coarsen(self, runs: List[KeyRange]) -> Tuple[Tuple[KeyRange, ...], bool]:
        """Over-approximate ``runs`` down to at most :attr:`RUN_BUDGET` ranges.

        Closes the smallest gaps first, so the number of spurious keys added —
        and with it the false-positive rate the fallback check must absorb —
        is minimal for the chosen budget.  Returns the runs as an immutable
        tuple (it may be shared through the run cache) and whether the budget
        forced any gap closed.
        """
        budget = self.RUN_BUDGET
        if len(runs) <= budget:
            return tuple(runs), False
        gaps = sorted(
            range(len(runs) - 1), key=lambda i: runs[i + 1][0] - runs[i][1]
        )
        close = set(gaps[: len(runs) - budget])
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

    # ----------------------------------------------------------------- queries
    def candidates(self, key: int) -> FrozenSet[Hashable]:
        """Subscriptions whose stored (possibly coarsened) runs contain ``key``.

        Not on the event path: it pays for the two filters the queries below
        leave to the rectangle test, dropping the stab's tombstoned slots and
        the staged slots whose runs miss ``key``.
        """
        self.stats.lookups += 1
        id_of = self._id_of
        flat = self._flat
        hits = [slot for slot in flat.stab(key) if slot in id_of]
        hits += [
            slot
            for slot, runs in flat.staged.items()
            if any(lo <= key <= hi for lo, hi in runs)
        ]
        return frozenset([id_of[slot] for slot in hits])

    # The queries below test the slots of one stab, then every staged slot,
    # each against its rectangle.  A staged slot's runs are not consulted:
    # the rectangle test is exact on its own (the runs cover the rectangle).
    # A tombstoned slot of the stab is skipped because it has no box left; a
    # staged slot always has one.  The test is the packed one
    # (:mod:`repro.geometry.universe`): with the event's packed point ``P``
    # and its guarded ``P | G`` fixed per probe, a slot's box ``(L, H | G)``
    # contains the event when ``((P | G) - L) & ((H | G) - P) & G == G`` —
    # one expression for all ``d`` attributes, inlined once per loop, behind
    # its two necessary conditions ``P >= L`` and ``H | G >= P | G`` (two
    # comparisons that allocate nothing and reject most misses).  Every
    # test made counts in ``candidates_checked``, every rejection in
    # ``false_positives``, tallied in locals and added once per loop.  The
    # staged tests are then charged to the store
    # (:meth:`FlatSegmentStore.charge`), their rejections counted apart (a
    # finer grid cannot save them), and the probe that pays for a flatten
    # makes it, after its answer is counted.  ``key`` and ``point``
    # optionally supply the event's Z key and packed point
    # (:attr:`~repro.pubsub.subscription.Event.point`); either is derived
    # from ``cells`` when absent.
    def any_match(
        self, cells: Sequence[int], key: Optional[int] = None, point: Optional[int] = None
    ) -> bool:
        """True when at least one indexed subscription matches the event cells."""
        if key is None:
            key = self.curve.key(cells)
        if point is None:
            point = pack_point(cells, self.universe.order)
        guard = self._guard
        guarded = point | guard
        stats = self.stats
        box_of_slot = self._box_of_slot
        flat = self._flat
        tested = 0
        for slot in flat.stab(key):
            box = box_of_slot.get(slot)
            if box is None:
                continue
            tested += 1
            lo, hi = box
            if point >= lo and hi >= guarded and (guarded - lo) & (hi - point) & guard == guard:
                stats.candidates_checked += tested
                stats.false_positives += tested - 1
                stats.lookups += 1
                return True
        staged_tests = 0
        found = False
        for slot in flat.staged:
            staged_tests += 1
            lo, hi = box_of_slot[slot]
            if point >= lo and hi >= guarded and (guarded - lo) & (hi - point) & guard == guard:
                found = True
                break
        tested += staged_tests
        stats.candidates_checked += tested
        stats.false_positives += tested - found
        stats.lookups += 1
        if staged_tests:
            self.staged_rejections += staged_tests - found
            if flat.charge(staged_tests):
                self._flatten_paid()
        return found

    def matching_ids(
        self, cells: Sequence[int], key: Optional[int] = None, point: Optional[int] = None
    ) -> List[Hashable]:
        """All indexed subscriptions matching the event cells, in slot order.

        The flattened slots come first and then the staged ones, each in the
        order they were stored; every staged slot was stored after the last
        rebuild.
        """
        if key is None:
            key = self.curve.key(cells)
        if point is None:
            point = pack_point(cells, self.universe.order)
        guard = self._guard
        guarded = point | guard
        matched: List[Hashable] = []
        stats = self.stats
        box_of_slot = self._box_of_slot
        id_of = self._id_of
        flat = self._flat
        tested = 0
        for slot in flat.stab(key):
            box = box_of_slot.get(slot)
            if box is None:
                continue
            tested += 1
            lo, hi = box
            if point >= lo and hi >= guarded and (guarded - lo) & (hi - point) & guard == guard:
                matched.append(id_of[slot])
        stab_matches = len(matched)
        staged = flat.staged
        for slot in staged:
            lo, hi = box_of_slot[slot]
            if point >= lo and hi >= guarded and (guarded - lo) & (hi - point) & guard == guard:
                matched.append(id_of[slot])
        tested += len(staged)
        stats.candidates_checked += tested
        stats.false_positives += tested - len(matched)
        stats.lookups += 1
        if staged:
            self.staged_rejections += len(staged) - len(matched) + stab_matches
            if flat.charge(len(staged)):
                self._flatten_paid()
        return matched

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MatchIndex(subscriptions={len(self)}, segments={self.segment_count()}, "
            f"precision_bits={self.precision_bits})"
        )
