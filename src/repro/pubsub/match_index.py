"""SFC-keyed forwarding-match index: event matching as a single sorted-array probe.

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
set of subscriptions whose runs cover it
(:class:`~repro.index.sfc_array.FlatSegmentStore`).  Because the segments are
disjoint, the segment containing ``key(p)`` — if any — is found by one
``bisect`` on the segments' upper endpoints (the segment with the smallest
upper endpoint ``>= key(p)``; the point is inside it iff the segment's lower
endpoint is ``<= key(p)``).

Three refinements keep the structure bounded and sound:

* **Precision-bounded decomposition, on a grid that grows with the table.**
  Before decomposing, the rectangle is snapped outward to a grid of
  ``precision_bits`` bits per dimension (cubes of side
  ``2^{order - precision_bits}``), so the quadtree recursion bottoms out after
  ``precision_bits`` levels instead of descending to unit cells.  Snapping
  outward only ever *adds* cells.  Unless the config pins ``precision_bits``,
  the grid is the coarsest giving each live subscription a cube of its own —
  the fewest bits ``b >= 1`` with ``2^{d·b} >= n`` for ``n`` subscriptions —
  capped at :meth:`~repro.index.config.IndexConfig.effective_precision_bits`
  (and at the schema's order, past which a finer grid changes nothing).
  The grid trades probe work for write work.  A coarser grid never changes
  an answer (the rectangle test confirms every candidate) but lets more
  candidates through: the tables of a broker network test about a third
  more of them per probe at 2 bits than at 4.  A finer grid costs runs: by
  Fact 2.1 a rectangle's run count grows about ``2^{d-1}``-fold per extra
  bit, so those 10–30 subscription tables store ~6 runs per subscription at
  2 bits where the 4-bit cap would store ~50, and every rebuild sweeps that
  many fewer.  The rule sizes the grid by the table alone, not by how often
  it is probed per write, so a table probed on every publish can pay more
  for the extra candidates than it saves on rebuilds (publishes on a
  3-broker chain run ~3 % slower).  The grid only steps up, one bit once
  ``n`` passes ``2^{d·b}`` (a bulk load into an empty index picks it from
  the batch size); a step re-derives every stored slot's runs and
  re-flattens the store in one sweep.  On a grid within the default
  precision budget (4,096 cubes) the runs are not decomposed at all but
  read off a :class:`~repro.sfc.runs.GridRunTable` — the same runs at a
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
per-event cost is one ``bisect`` plus the candidates of one segment.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..core.decomposition import decompose_rectangle
from ..geometry.rect import Rectangle, StandardCube
from ..geometry.universe import Universe
from ..index.config import PRECISION_BIT_BUDGET, IndexConfig
from ..index.sfc_array import FlatSegmentStore
from ..sfc.base import KeyRange
from ..sfc.factory import make_curve
from ..sfc.runs import GridRunTable, merge_key_ranges
from .schema import AttributeSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .subscription_store import ProfileCache

__all__ = ["MatchIndex", "MatchIndexStats"]


@functools.lru_cache(maxsize=64)
def _grid_run_table(kind: str, dims: int, order: int, bits: int) -> GridRunTable:
    """The process-wide run table of one (curve, universe, precision grid)."""
    return GridRunTable(make_curve(kind, Universe(dims=dims, order=order)), bits)


@dataclass
class MatchIndexStats:
    """Operation counters (store-independent work units for benchmarks).

    ``runs_stored`` is the live total; ``coarsened_subscriptions`` counts
    every time a subscription's runs were stored coarsened, at insert or
    re-derived on a grid step.
    """

    inserts: int = 0
    removals: int = 0
    runs_stored: int = 0
    coarsened_subscriptions: int = 0
    lookups: int = 0
    candidates_checked: int = 0
    false_positives: int = 0


class MatchIndex:
    """Point-stab index over the subscriptions of one interface.

    Parameters
    ----------
    schema:
        Attribute schema shared with the routing layer; fixes the grid
        (``d = num_attributes`` dimensions, ``2^order`` cells per side).
    config:
        The :class:`~repro.index.config.IndexConfig` (defaults to
        ``IndexConfig()``).  The index reads four of its fields; ``backend``
        is not one of them (the disjoint segments always live in one
        :class:`~repro.index.sfc_array.FlatSegmentStore`: parallel sorted
        arrays probed by ``bisect``, with bulk-load construction, a
        pending-run buffer and amortised merge-rebuilds; ``"sharded"`` is
        :class:`~repro.pubsub.sharded_index.ShardedMatchIndex` over several
        of these).  ``run_budget`` caps the key ranges stored per
        subscription (see module docstring).
        ``precision_bits`` pins the grid resolution (bits per dimension) at
        which rectangles are decomposed; schemas with a larger order have
        their rectangles snapped outward to this grid first.  ``None`` lets
        the grid grow with the table (module docstring) up to the
        budget-derived ceiling, which scales with dimensionality so the
        total decomposition work stays within :data:`~repro.index.config.PRECISION_BIT_BUDGET`; the
        current grid is :attr:`precision_bits`.  ``curve``
        names the space-filling curve (:data:`~repro.sfc.factory.CURVE_KINDS`)
        keying the segments; curves differ in run counts — and therefore in
        segment counts and false-positive rates — never in match answers.
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
        config: Optional[IndexConfig] = None,
        run_cache: Optional["ProfileCache"] = None,
    ) -> None:
        config = config or IndexConfig()
        self.config = config
        self.schema = schema
        self.universe = Universe(dims=schema.num_attributes, order=schema.order)
        self.curve = make_curve(config.curve, self.universe)
        self.run_budget = config.run_budget
        self._run_cache = run_cache
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
        self._rect_of_slot: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        self._next_slot = 0
        self.stats = MatchIndexStats()

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

    # --------------------------------------------------------------- precision
    def _bits_for(self, live: int) -> int:
        """The derived grid for ``live`` subscriptions, in bits per dimension.

        The fewest bits ``b >= 1`` giving at least one grid cube per
        subscription (``2^(d·b) >= live``), capped at the ceiling.
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
            self.curve.kind,
            universe.dims,
            universe.order,
            effective,
            self.run_budget,
        )
        # Grids of at most 2^PRECISION_BIT_BUDGET cubes (every derived
        # precision; an explicit ``precision_bits`` may exceed it) read runs
        # off the shared table, fetched on the first uncached rectangle.
        self._tabulated = universe.dims * effective <= PRECISION_BIT_BUDGET
        self._grid_runs: Optional[GridRunTable] = None
        # The live count past which the grid steps up (never, once at the
        # ceiling: a pinned grid starts there).
        if bits < self._ceiling:
            self._grow_past = 1 << (universe.dims * bits)
        else:
            self._grow_past = float("inf")

    def _grow(self, live: int) -> None:
        """Step the grid up to the one ``live`` subscriptions call for.

        Every stored slot's runs are re-derived on the finer grid (through the
        run cache; slots sharing a snapped rectangle share one derivation) and
        the store is re-flattened in one sweep.  Slots keep their order.
        """
        self._set_precision(self._bits_for(live))
        rects = self._rect_of_slot
        if not rects:
            return
        entries = self._derive(rects.values())
        self._flat.reflatten(zip(rects, [runs for runs, _ in entries]))
        self.stats.runs_stored = sum([len(runs) for runs, _ in entries])
        self.stats.coarsened_subscriptions += sum([coarsened for _, coarsened in entries])

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

    def add(self, sub_id: Hashable, ranges: Sequence[Tuple[int, int]]) -> None:
        """Index a subscription's quantised per-attribute ranges (replacing any previous).

        Validation happens before any mutation, so a rejected replace leaves
        the previously stored entry intact.
        """
        rect_ranges = self._validate_ranges(ranges)
        if sub_id in self._slot_of:
            self.remove(sub_id)
        if len(self._slot_of) >= self._grow_past:
            self._grow(len(self._slot_of) + 1)
        [(runs, coarsened)] = self._runs_for([self._snap_signature(rect_ranges)])
        stats = self.stats
        stats.coarsened_subscriptions += coarsened
        slot = self._next_slot
        self._next_slot = slot + 1
        self._slot_of[sub_id] = slot
        self._id_of[slot] = sub_id
        self._rect_of_slot[slot] = rect_ranges
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
            # A later duplicate replaces an earlier one and, as a re-add
            # would, takes its place at the end.
            if sub_id in deduped:
                del deduped[sub_id]
            deduped[sub_id] = tuple(out)
        slot_of = self._slot_of
        for sub_id in deduped:
            if sub_id in slot_of:
                self.remove(sub_id)
        if len(slot_of) + len(deduped) > self._grow_past:
            self._grow(len(slot_of) + len(deduped))
        # Slots in item order, as per-item adds would assign them (the body of
        # add, inlined: the per-call overhead would dominate a bulk load).
        stats = self.stats
        id_of = self._id_of
        rect_of_slot = self._rect_of_slot
        next_slot = self._next_slot
        runs_stored = coarsened_items = 0
        bulk: List[Tuple[int, Tuple[KeyRange, ...]]] = []
        for (sub_id, rect_ranges), (runs, coarsened) in zip(
            deduped.items(), self._derive(deduped.values())
        ):
            slot_of[sub_id] = next_slot
            id_of[next_slot] = sub_id
            rect_of_slot[next_slot] = rect_ranges
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
        del self._rect_of_slot[slot]
        removed_runs = self._flat.remove(slot)
        self.stats.removals += 1
        self.stats.runs_stored -= removed_runs
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
    # A tombstoned slot of the stab is skipped because it has no rectangle
    # left; a staged slot always has one.  Every test made counts
    # in ``candidates_checked``, every rejection in ``false_positives``.  The
    # test is inlined as an early-exit ``for ... else`` loop, once per loop:
    # ``all()`` over a generator costs about twice as much, and chaining the
    # two loops into one costs a tenth of a probe.
    def any_match(self, cells: Sequence[int], key: Optional[int] = None) -> bool:
        """True when at least one indexed subscription matches the event cells."""
        if key is None:
            key = self.curve.key(cells)
        stats = self.stats
        rect_of_slot = self._rect_of_slot
        flat = self._flat
        for slot in flat.stab(key):
            rect = rect_of_slot.get(slot)
            if rect is None:
                continue
            stats.candidates_checked += 1
            for (lo, hi), cell in zip(rect, cells):
                if not lo <= cell <= hi:
                    stats.false_positives += 1
                    break
            else:
                stats.lookups += 1
                return True
        for slot in flat.staged:
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

    def matching_ids(self, cells: Sequence[int], key: Optional[int] = None) -> List[Hashable]:
        """All indexed subscriptions matching the event cells, in slot order.

        The flattened slots come first and then the staged ones, each in the
        order they were stored; every staged slot was stored after the last
        rebuild.
        """
        if key is None:
            key = self.curve.key(cells)
        matched: List[Hashable] = []
        stats = self.stats
        rect_of_slot = self._rect_of_slot
        id_of = self._id_of
        flat = self._flat
        for slot in flat.stab(key):
            rect = rect_of_slot.get(slot)
            if rect is None:
                continue
            stats.candidates_checked += 1
            for (lo, hi), cell in zip(rect, cells):
                if not lo <= cell <= hi:
                    stats.false_positives += 1
                    break
            else:
                matched.append(id_of[slot])
        for slot in flat.staged:
            stats.candidates_checked += 1
            for (lo, hi), cell in zip(rect_of_slot[slot], cells):
                if not lo <= cell <= hi:
                    stats.false_positives += 1
                    break
            else:
                matched.append(id_of[slot])
        stats.lookups += 1
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
            f"precision_bits={self.precision_bits}, run_budget={self.run_budget})"
        )
