"""Tests for the SFC-keyed forwarding-match index and its routing integration.

The contract under test: an interface table's match index must be
behaviourally identical to the linear scan the table runs while it is small —
same ``any_match`` answers, same matched subscription sets, same network
deliveries — while answering each event with a single ordered-map probe.  Soundness must survive the run-budget over-approximation (the
rectangle fallback check) and arbitrary add/remove churn (segment splitting
and re-coalescing).
"""

from __future__ import annotations

import inspect
import random
from unittest.mock import patch

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.geometry.bits import spread_bits
from repro.geometry.rect import Rectangle
from repro.geometry.transform import first_covering, ranges_cover
from repro.geometry.universe import pack_box, packed_guard
from repro.index.config import PRECISION_BIT_BUDGET, IndexConfig
from repro.pubsub.broker import Broker, LinkState
from repro.pubsub.match_index import MatchIndex
from repro.pubsub.network import (
    BrokerNetwork,
    chain_topology,
    star_topology,
    tree_topology,
)
from repro.pubsub.routing_table import InterfaceTable, RoutingTable
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription
from rect_oracle import contains

DEFAULT_RUN_BUDGET = MatchIndex.RUN_BUDGET


@pytest.fixture
def schema():
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=6
    )


def random_subscription(schema, rng, sub_id, max_width=40.0):
    lo_x, lo_y = rng.uniform(0, 95), rng.uniform(0, 95)
    return Subscription(
        schema,
        {
            "x": (lo_x, min(100.0, lo_x + rng.uniform(0.5, max_width))),
            "y": (lo_y, min(100.0, lo_y + rng.uniform(0.5, max_width))),
        },
        sub_id=sub_id,
    )


def random_event(schema, rng):
    return Event(schema, {"x": rng.uniform(0, 100), "y": rng.uniform(0, 100)})


class TestMatchIndexUnit:
    def test_single_subscription_point_stab(self, schema):
        index = MatchIndex(schema)
        sub = Subscription(schema, {"x": (10.0, 40.0), "y": (10.0, 40.0)}, sub_id="s")
        index.add("s", sub.ranges)
        inside = Event(schema, {"x": 25.0, "y": 25.0})
        outside = Event(schema, {"x": 80.0, "y": 25.0})
        assert index.any_match(inside.cells)
        assert not index.any_match(outside.cells)
        assert index.matching_ids(inside.cells) == ["s"]
        assert index.matching_ids(outside.cells) == []
        assert index.remove("s")
        assert not index.remove("s")
        assert not index.any_match(inside.cells)
        assert index.segment_count() == 0

    def test_full_range_subscription_matches_everything(self, schema):
        index = MatchIndex(schema)
        catch_all = Subscription(schema, {}, sub_id="all")
        index.add("all", catch_all.ranges)
        # The full universe is a single standard cube, hence a single segment.
        assert index.segment_count() == 1
        rng = random.Random(5)
        for _ in range(50):
            assert index.any_match(random_event(schema, rng).cells)

    def test_readd_replaces_previous_ranges(self, schema):
        index = MatchIndex(schema)
        first = Subscription(schema, {"x": (0.0, 20.0)}, sub_id="s")
        second = Subscription(schema, {"x": (60.0, 90.0)}, sub_id="s")
        index.add("s", first.ranges)
        index.add("s", second.ranges)
        assert len(index) == 1
        assert not index.any_match(Event(schema, {"x": 10.0, "y": 50.0}).cells)
        assert index.any_match(Event(schema, {"x": 70.0, "y": 50.0}).cells)

    @pytest.mark.parametrize(
        "run_budget, subscriptions, removed, bulk",
        [pytest.param(budget, 40, 10, False, id=str(budget)) for budget in (1, 2, 8, 64)]
        + [
            # One coarse run per subscription, flattened by a bulk load.
            pytest.param(1, 40, 10, True, id="bulk-1"),
            # Two thirds of a bulk load withdrawn: half-garbage rebuilds.
            pytest.param(DEFAULT_RUN_BUDGET, 150, 100, True, id="mass-delete"),
        ],
    )
    def test_equivalence_with_brute_force_under_coarsening(
        self, schema, monkeypatch, run_budget, subscriptions, removed, bulk
    ):
        """Tiny run budgets force heavy over-approximation; the rectangle
        fallback check must keep answers exact regardless, through any share
        of withdrawals and down to an empty index."""
        monkeypatch.setattr(MatchIndex, "RUN_BUDGET", run_budget)
        rng = random.Random(run_budget)
        index = MatchIndex(schema)
        subs = {}
        for i in range(subscriptions):
            sub = random_subscription(schema, rng, f"s{i}")
            subs[sub.sub_id] = sub
            if not bulk:
                index.add(sub.sub_id, sub.ranges)
        if bulk:
            index.add_batch([(sub_id, sub.ranges) for sub_id, sub in subs.items()])
        for sub_id in rng.sample(list(subs), removed):
            del subs[sub_id]
            assert index.remove(sub_id)
        assert len(index) == subscriptions - removed
        for _ in range(300):
            event = random_event(schema, rng)
            expected = {sid for sid, sub in subs.items() if sub.matches(event)}
            assert set(index.matching_ids(event.cells)) == expected
            assert index.any_match(event.cells) == bool(expected)
        for sub_id in subs:
            assert index.remove(sub_id)
        assert len(index) == index.segment_count() == 0
        assert not any(index.any_match(random_event(schema, rng).cells) for _ in range(50))

    def test_coarsening_records_stats(self, schema, monkeypatch):
        # On the schema's full 6-bit grid (pinned: a one-subscription index
        # would otherwise decompose on its coarsest grid) a thin full-width
        # strip decomposes into many runs.  A bulk load flattens it, so a
        # probe reaches it through its one run.
        monkeypatch.setattr(MatchIndex, "RUN_BUDGET", 1)
        index = MatchIndex(schema, config=IndexConfig(precision_bits=6))
        strip = Subscription(schema, {"y": (50.0, 51.0)}, sub_id="strip")
        index.add_batch([("strip", strip.ranges)])
        assert index.stats.coarsened_subscriptions == 1
        assert index.stats.runs_stored == 1
        # Coarsening to one run over-approximates; probes off the strip must
        # still be rejected by the rectangle check.
        miss = Event(schema, {"x": 50.0, "y": 10.0})
        key = index.event_key(miss.cells)
        assert index.candidates(key) == {"strip"}
        assert not index.any_match(miss.cells)
        assert (index.stats.candidates_checked, index.stats.false_positives) == (1, 1)
        # A staged subscription gets the rectangle test on every probe, even
        # one its runs miss: one more test made, one more rejection counted.
        corner = Subscription(schema, {"x": (0.0, 5.0), "y": (90.0, 95.0)}, sub_id="corner")
        index.add("corner", corner.ranges)
        assert index._slot_of["corner"] in index._flat.staged
        assert "corner" not in index.candidates(key)
        assert not index.any_match(miss.cells)
        assert index.matching_ids(miss.cells) == []
        assert (index.stats.candidates_checked, index.stats.false_positives) == (5, 5)

    @pytest.mark.parametrize("precision_bits", [2, 4, 8])
    def test_precision_bounded_decomposition_stays_exact(self, precision_bits):
        """Snapping rectangles to a coarse decomposition grid is pure
        over-approximation; answers must remain identical to brute force."""
        schema9 = AttributeSchema(
            [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=9
        )
        rng = random.Random(precision_bits)
        index = MatchIndex(schema9, config=IndexConfig(precision_bits=precision_bits))
        subs = {}
        for i in range(25):
            sub = random_subscription(schema9, rng, f"s{i}")
            subs[sub.sub_id] = sub
            index.add(sub.sub_id, sub.ranges)
        for _ in range(200):
            event = random_event(schema9, rng)
            expected = {sid for sid, sub in subs.items() if sub.matches(event)}
            assert set(index.matching_ids(event.cells)) == expected

    @pytest.mark.parametrize("names, order", [("xy", 12), ("xyz", 10), ("wxyz", 8)])
    def test_tabulated_runs_equal_decomposed_runs(self, names, order):
        """Grids within the precision budget read their runs off the shared
        table; the stored runs are those the decomposition would give."""
        schema_d = AttributeSchema(
            [Attribute(name, 0.0, 100.0) for name in names], order=order
        )
        top = (1 << order) - 1
        rng = random.Random(7)
        tabulated = MatchIndex(schema_d)
        decomposed = MatchIndex(schema_d)
        assert tabulated._tabulated
        decomposed._tabulated = False
        for _ in range(30):
            ranges = []
            for _ in names:
                lo = rng.randint(0, top)
                ranges.append((lo, rng.randint(lo, top)))
            signature = tabulated._snap_signature(tuple(ranges))
            assert tabulated._runs_for([signature]) == decomposed._runs_for([signature])
        # An explicit precision beyond the budget keeps the decomposition.
        beyond = IndexConfig(precision_bits=PRECISION_BIT_BUDGET // len(names) + 1)
        assert not MatchIndex(schema_d, config=beyond)._tabulated

    @pytest.mark.parametrize("attributes, order", [(4, 16), (8, 8)])
    def test_unconstrained_subscription_survives_a_bulk_load_at_64_bit_keys(
        self, attributes, order
    ):
        """An all-range subscription is the single run ``(0, 2**64 - 1)`` here, and
        a bulk load of 512+ takes the numpy sweep, whose exclusive run ends
        used to wrap to 0 and drop it: every answer against the rectangle oracle."""
        schema = AttributeSchema(
            [Attribute(f"a{i}", 0.0, 1.0) for i in range(attributes)], order=order
        )
        top = (1 << order) - 1
        rng = random.Random(attributes)
        rects = {"everything": ((0, top),) * attributes}
        # One that reaches the top of the key space without starting at 0.
        rects["upper-half"] = ((top // 2 + 1, top),) * attributes
        for i in range(600):
            corners = [sorted((rng.randint(0, top), rng.randint(0, top))) for _ in range(attributes)]
            rects[i] = tuple((lo, hi) for lo, hi in corners)
        index = MatchIndex(schema)
        index.add_batch(list(rects.items()))
        probes = [(top,) * attributes, (0,) * attributes, (top // 2 + 1,) * attributes]
        probes += [tuple(rng.randint(0, top) for _ in range(attributes)) for _ in range(40)]
        probes += [tuple(rng.randint(lo, hi) for lo, hi in rects[i]) for i in range(20)]
        for cells in probes:
            expected = {
                sub_id
                for sub_id, rect in rects.items()
                if all(lo <= cell <= hi for (lo, hi), cell in zip(rect, cells))
            }
            assert "everything" in expected
            assert set(index.matching_ids(cells)) == expected
            assert index.any_match(cells)

    def test_rejects_wrong_arity(self, schema):
        index = MatchIndex(schema)
        with pytest.raises(ValueError):
            index.add("bad", ((0, 5),))

    def test_rejects_invalid_ranges_without_mutating(self, schema):
        """A rejected replace must leave the previously stored entry intact."""
        index = MatchIndex(schema)
        good = Subscription(schema, {"x": (10.0, 40.0)}, sub_id="s")
        index.add("s", good.ranges)
        inside = Event(schema, {"x": 20.0, "y": 50.0})
        with pytest.raises(ValueError):
            index.add("s", ((5, 3), (0, 63)))  # inverted
        with pytest.raises(ValueError):
            index.add("s", ((0, 10), (0, 1_000_000)))  # out of universe
        assert "s" in index
        assert index.any_match(inside.cells)

    def test_rejects_bad_run_budget(self, schema):
        # The budget is a class constant: no config can set it, to 0 or anything.
        with pytest.raises(TypeError):
            MatchIndex(schema, config=IndexConfig(run_budget=0))

    def test_spread_bits_matches_curve_key(self, schema):
        index = MatchIndex(schema)
        rng = random.Random(3)
        dims = index.universe.dims
        points = [
            tuple(rng.randrange(index.universe.side) for _ in range(dims))
            for _ in range(50)
        ]
        for cells in points:
            key = 0
            for dim, cell in enumerate(cells):
                key |= spread_bits(cell, dims, dims - 1 - dim)
            assert key == index.curve.key(cells)
        # The batch construction shares the same layout and validation.
        assert index.curve.keys(points) == [index.curve.key(p) for p in points]
        with pytest.raises(ValueError):
            index.curve.keys([(0, index.universe.side)])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("run_budget", [64, 2])
    def test_queries_equal_a_scan_with_staged_and_tombstoned_slots(
        self, schema, monkeypatch, seed, run_budget
    ):
        """A seeded walk of ``add`` / ``add_batch`` / ``remove`` (re-adds and
        in-batch replacements included) with probes after every write.  The
        queries test staged slots by rectangle alone and skip tombstoned ones
        by their missing rectangle, so the walk must reach states holding
        both at once, below either threshold, and in every state
        ``matching_ids`` is the linear scan in insertion order, ``any_match``
        its truth value, and ``candidates`` exactly the live subscriptions
        whose stored runs hold the key (every match among them)."""
        monkeypatch.setattr(MatchIndex, "RUN_BUDGET", run_budget)
        rng = random.Random(seed)
        index = MatchIndex(schema)
        side = index.universe.side
        model = {}  # sub_id -> cell ranges, in insertion order

        def rect():
            corner = [rng.randrange(side) for _ in range(2)]
            return tuple((lo, min(side - 1, lo + rng.randrange(side // 2))) for lo in corner)

        def place(sub_id, ranges):
            model.pop(sub_id, None)
            model[sub_id] = ranges

        seed_items = [(f"s{i}", rect()) for i in range(40)]
        index.add_batch(seed_items)
        for sub_id, ranges in seed_items:
            place(sub_id, ranges)
        names = [f"s{i}" for i in range(80)]
        mixed_states = 0
        for _ in range(400):
            draw = rng.random()
            if draw < 0.45:
                sub_id = rng.choice(names)
                ranges = rect()
                index.add(sub_id, ranges)
                place(sub_id, ranges)
            elif draw < 0.5:
                # Distinct ids and rectangles, some already stored: item order
                # is insertion order, and a re-added id moves to the end.
                items = {rng.choice(names): rect() for _ in range(rng.randrange(1, 4))}
                index.add_batch(list(items.items()))
                for sub_id, ranges in items.items():
                    place(sub_id, ranges)
            elif model:
                sub_id = rng.choice(list(model))
                assert index.remove(sub_id)
                del model[sub_id]
            flat = index._flat
            mixed_states += bool(flat.staged) and bool(flat._dead)
            probes = [tuple(rng.randrange(side) for _ in range(2)) for _ in range(6)]
            stored = rng.sample(list(model.values()), min(3, len(model)))
            probes += [tuple(lo for lo, _ in ranges) for ranges in stored]
            for cells in probes:
                expected = [
                    sub_id
                    for sub_id, ranges in model.items()
                    if all(lo <= cell <= hi for (lo, hi), cell in zip(ranges, cells))
                ]
                assert index.matching_ids(cells) == expected
                assert index.any_match(cells) is bool(expected)
                key = index.event_key(cells)
                holding = {
                    sub_id
                    for sub_id in model
                    if any(lo <= key <= hi for lo, hi in flat.runs_of(index._slot_of[sub_id]))
                }
                assert index.candidates(key) == holding >= set(expected)
        assert mixed_states > 20, mixed_states
        assert len(index) == len(model)


def _replay(schema, run_budget, seed=7):
    """Bulk-load 50 subscriptions into a fresh index, probe 120 events.

    Returns the index, the answers in probe order and the number of
    (event, subscription) matches a scan finds.
    """
    rng = random.Random(seed)
    subs = [random_subscription(schema, rng, f"s{i}") for i in range(50)]
    events = [random_event(schema, rng) for _ in range(120)]
    with patch.object(MatchIndex, "RUN_BUDGET", run_budget):
        index = MatchIndex(schema)
        index.add_batch([(sub.sub_id, sub.ranges) for sub in subs])
        answers = [frozenset(index.matching_ids(event.cells)) for event in events]
    scanned = sum(sub.matches(event) for event in events for sub in subs)
    return index, answers, scanned


@pytest.mark.parametrize("seed", [7, 8, 9])
class TestRunBudget:
    """What the run budget trades: runs stored against candidates checked.

    The budget never changes an answer, only how many false candidates the
    rectangle check has to reject.  Each claim holds on every seeded
    workload, not on one lucky draw.
    """

    def test_a_budget_of_one_stores_one_run_per_subscription(self, schema, seed):
        index, _answers, _scanned = _replay(schema, run_budget=1, seed=seed)
        assert index.stats.runs_stored == len(index) == 50

    def test_a_finer_budget_stores_more_runs_and_checks_fewer_candidates(
        self, schema, seed
    ):
        coarse, coarse_answers, _ = _replay(schema, run_budget=1, seed=seed)
        fine, fine_answers, _ = _replay(schema, run_budget=4, seed=seed)
        assert fine.stats.runs_stored > coarse.stats.runs_stored
        assert fine.stats.candidates_checked < coarse.stats.candidates_checked
        assert fine.stats.false_positives < coarse.stats.false_positives
        assert fine_answers == coarse_answers

    def test_every_candidate_is_a_match_or_a_false_positive(self, schema, seed):
        for run_budget in (1, 4, DEFAULT_RUN_BUDGET):
            index, answers, scanned = _replay(schema, run_budget, seed)
            assert scanned > 0
            assert sum(map(len, answers)) == scanned
            stats = index.stats
            assert stats.candidates_checked - stats.false_positives == scanned
            assert stats.lookups == len(answers)

    def test_replaying_a_workload_repeats_every_counter(self, schema, seed):
        first, first_answers, _ = _replay(schema, run_budget=4, seed=seed)
        again, again_answers, _ = _replay(schema, run_budget=4, seed=seed)
        assert again.stats == first.stats
        assert again_answers == first_answers


def _box(lo, hi):
    """The square of cells ``[lo, hi]`` on both axes."""
    return ((lo, hi), (lo, hi))


def _random_box(rng, side, max_width=20):
    return tuple(
        (lo, min(side - 1, lo + rng.randrange(max_width)))
        for lo in (rng.randrange(side), rng.randrange(side))
    )


def test_match_index_takes_schema_config_and_run_cache_only():
    assert list(inspect.signature(MatchIndex).parameters) == ["schema", "config", "run_cache"]


@pytest.mark.parametrize("load", ["add", "add_batch"])
@pytest.mark.parametrize("precision_bits", [None, 1, 6], ids=["grown", "pinned1", "pinned6"])
class TestOneIndex:
    """An interface table's one index, whether its
    subscriptions arrived one ``add`` at a time (staged slots, flattened as
    the store decides) or in one ``add_batch`` (flattened at once), and
    whether its grid grows with the table or is pinned at the coarsest or
    the finest precision (runs a whole quadrant wide, or exact)."""

    @staticmethod
    def _loaded(schema, load, precision_bits, items, index=None):
        if index is None:
            index = MatchIndex(schema, config=IndexConfig(precision_bits=precision_bits))
        if load == "add":
            for sub_id, ranges in items:
                index.add(sub_id, ranges)
        else:
            index.add_batch(items)
        return index

    def test_an_empty_index_matches_nothing(self, schema, load, precision_bits):
        index = self._loaded(schema, load, precision_bits, [])
        assert len(index) == index.segment_count() == 0
        assert not index.any_match((5, 5))
        assert index.matching_ids((5, 5)) == []
        assert index.remove("absent") is False

    def test_a_repeated_id_keeps_its_last_rectangle(self, schema, load, precision_bits):
        index = self._loaded(
            schema, load, precision_bits,
            [("a", _box(0, 3)), ("b", _box(10, 12)), ("a", _box(20, 22))],
        )
        assert len(index) == 2
        assert index.matching_ids((1, 1)) == []
        assert index.matching_ids((21, 21)) == ["a"]
        assert index.matching_ids((11, 11)) == ["b"]

    def test_a_replaced_rectangle_answers_at_its_new_place(self, schema, load, precision_bits):
        index = self._loaded(
            schema, load, precision_bits, [(sid, _box(sid, sid)) for sid in range(4)]
        )
        self._loaded(schema, load, precision_bits, [(1, _box(60, 63)), (4, _box(4, 4))], index)
        assert len(index) == 5
        assert index.matching_ids((1, 1)) == []
        assert index.matching_ids((61, 62)) == [1]
        assert index.matching_ids((4, 4)) == [4]

    def test_remove_drops_only_that_entry(self, schema, load, precision_bits):
        index = self._loaded(
            schema, load, precision_bits, [("a", _box(0, 10)), ("b", _box(5, 15))]
        )
        assert index.remove("a") is True
        assert "a" not in index and len(index) == 1
        assert index.matching_ids((7, 7)) == ["b"]
        assert index.matching_ids((2, 2)) == []
        assert index.remove("a") is False

    def test_a_rejected_write_changes_nothing(self, schema, load, precision_bits):
        """A bad rectangle — alone, as a replacement, or among good ones in a
        batch — is rejected before the index changes: not its size, not an
        answer, not the rectangle it replaces."""
        rng = random.Random(7)
        side = 1 << schema.order
        items = [(sid, _random_box(rng, side)) for sid in range(9)]
        index = self._loaded(schema, load, precision_bits, items[:7])
        cells = [(x, y) for x in range(0, side, 3) for y in range(0, side, 3)]
        answers = [index.matching_ids(c) for c in cells]
        # Past the grid, too few ranges, inverted, negative.
        for bad in [((0, 99), (0, 5)), ((0, 5),), ((7, 3), (0, 5)), ((-1, 3), (0, 5))]:
            with pytest.raises(ValueError):
                index.add("bad", bad)
            with pytest.raises(ValueError):
                index.add(3, bad)
            with pytest.raises(ValueError):
                index.add_batch([items[7], ("bad", bad), items[8]])
        assert len(index) == 7
        assert "bad" not in index and 7 not in index and 8 not in index
        assert [index.matching_ids(c) for c in cells] == answers

    def test_removing_an_unknown_id_changes_nothing(self, schema, load, precision_bits):
        rng = random.Random(6)
        side = 1 << schema.order
        index = self._loaded(
            schema, load, precision_bits, [(sid, _random_box(rng, side)) for sid in range(20)]
        )
        cells = [(x, y) for x in range(0, side, 3) for y in range(0, side, 3)]
        before = [index.matching_ids(c) for c in cells]
        segments = index.segment_count()
        assert index.remove("ghost") is False
        assert len(index) == 20 and index.segment_count() == segments
        assert [index.matching_ids(c) for c in cells] == before

    def test_answers_equal_a_brute_force_scan(self, schema, load, precision_bits):
        rng = random.Random(6)
        side = 1 << schema.order
        rects = {sid: _random_box(rng, side, max_width=28) for sid in range(80)}
        index = self._loaded(schema, load, precision_bits, list(rects.items()))
        for cells in [(x, y) for x in range(0, side, 2) for y in range(0, side, 3)]:
            matched = index.matching_ids(cells)
            assert matched == [
                sid
                for sid, rect in rects.items()
                if all(lo <= c <= hi for (lo, hi), c in zip(rect, cells))
            ]
            assert index.any_match(cells) is bool(matched)

    def test_keys_computed_once_give_the_same_answers(self, schema, load, precision_bits):
        """The event path keys an event once and hands the key to every probe."""
        rng = random.Random(3)
        side = 1 << schema.order
        index = self._loaded(
            schema, load, precision_bits, [(sid, _random_box(rng, side)) for sid in range(30)]
        )
        events = [(rng.randrange(side), rng.randrange(side)) for _ in range(60)]
        keys = index.curve.keys(events)
        assert keys == [index.event_key(cells) for cells in events]
        for cells, key in zip(events, keys):
            assert index.matching_ids(cells, key) == index.matching_ids(cells)
            assert index.any_match(cells, key) is index.any_match(cells)

    def test_matches_come_in_insertion_order(self, schema, load, precision_bits):
        order = ["d", "a", "e", "c", "b"]
        index = self._loaded(schema, load, precision_bits, [(sid, _box(0, 63)) for sid in order])
        assert index.matching_ids((7, 7)) == order
        self._loaded(schema, load, precision_bits, [("a", _box(0, 63))], index)
        assert index.matching_ids((7, 7)) == ["d", "e", "c", "b", "a"]

    def test_counters_count_inserts_removals_and_probes(self, schema, load, precision_bits):
        rng = random.Random(2)
        side = 1 << schema.order
        index = self._loaded(
            schema, load, precision_bits, [(sid, _random_box(rng, side)) for sid in range(12)]
        )
        index.remove(4)
        probes = [(x, x) for x in range(0, side, 5)]
        matches = sum(len(index.matching_ids(cells)) for cells in probes)
        stats = index.stats
        assert (stats.inserts, stats.removals, stats.lookups) == (12, 1, len(probes))
        assert stats.candidates_checked - stats.false_positives == matches


class TestInterfaceTableMatching:
    def test_no_matching_keyword_below_the_network(self, schema):
        """Every table scans while small and indexes after: no constructor
        takes a choice, and ``from_topology`` accepts only the one spelling
        callers already pass."""
        for build in (
            lambda **kw: InterfaceTable("i", schema, **kw),
            lambda **kw: RoutingTable(schema, **kw),
            lambda **kw: Broker(broker_id=0, schema=schema, **kw),
            lambda **kw: BrokerNetwork(schema=schema, **kw),
        ):
            build()
            with pytest.raises(TypeError):
                build(matching="sfc")
        BrokerNetwork.from_topology(schema, chain_topology(2), matching="sfc")
        with pytest.raises(ValueError, match="matching"):
            BrokerNetwork.from_topology(schema, chain_topology(2), matching="linear")

    @pytest.mark.parametrize("seed", range(3))
    def test_scan_and_index_equal_a_linear_scan_across_the_build(self, schema, monkeypatch, seed):
        """A seeded walk of adds, re-adds and removals through the build and
        back down: a table kept scanning, a table crossing the limit and the
        model's scan give the same matches, the scanning ones in table order,
        and the cost reported is every stored subscription while scanning."""
        rng = random.Random(seed)
        # Forty names: a limit of 16 puts the build inside the walk.
        monkeypatch.setattr(InterfaceTable, "SCAN_LIMIT", 16)
        scanning = InterfaceTable("i", schema)
        scanning.SCAN_LIMIT = 1 << 62
        monkeypatch.setattr(MatchIndex, "RUN_BUDGET", 4)
        crossing = InterfaceTable("i", schema)
        model = {}  # sub_id -> Subscription, in table order
        largest = 0
        names = [f"s{i}" for i in range(40)]
        phases = [0.85] * 120 + [0.25] * 120  # grow past the limit, then shrink
        for grow in phases:
            if rng.random() < grow or not model:
                sub = random_subscription(schema, rng, rng.choice(names))
                scanning.add(sub)
                crossing.add(sub)
                model[sub.sub_id] = sub
            else:
                sub_id = rng.choice(list(model))
                assert scanning.remove(sub_id) and crossing.remove(sub_id)
                del model[sub_id]
            largest = max(largest, len(model))
            assert (crossing.match_index is not None) is (largest > InterfaceTable.SCAN_LIMIT)
            for _ in range(3):
                event = random_event(schema, rng)
                expected = [sub_id for sub_id, sub in model.items() if sub.matches(event)]
                assert scanning.matching_ids(event) == (expected, len(model))
                assert sorted(crossing.matching_ids(event)[0]) == sorted(expected)
                assert scanning.any_match(event) is crossing.any_match(event) is bool(expected)
        assert crossing.match_index is not None and scanning.match_index is None
        assert len(crossing.match_index) == len(crossing) == len(model)

    def test_only_an_indexed_table_keys_the_event(self, schema, monkeypatch):
        """``matching_interfaces`` computes no key: a scanning table never reads
        ``Event.key``, and an indexed table's probe reads it, which keys the
        event once and keeps the key on it."""
        routing = RoutingTable(schema)
        routing.table("east").add(Subscription(schema, {"x": (0.0, 50.0)}, sub_id="s"))
        event = Event(schema, {"x": 10.0, "y": 10.0})
        assert routing.matching_interfaces(event) == ["east"]
        assert "key" not in vars(event)
        monkeypatch.setattr(InterfaceTable, "SCAN_LIMIT", 0)
        routing.table("west").add(Subscription(schema, {"x": (0.0, 50.0)}, sub_id="w"))
        assert routing.table("west").match_index is not None
        assert routing.matching_interfaces(event) == ["east", "west"]
        assert vars(event)["key"] == MatchIndex(schema).event_key(event.cells)

    def test_matching_interfaces_among_restricts_probes(self, schema):
        routing = RoutingTable(schema)
        sub = Subscription(schema, {"x": (0.0, 50.0)}, sub_id="s")
        routing.table("east").add(sub)
        routing.table("__local__").add(Subscription(schema, {"x": (0.0, 50.0)}, sub_id="l"))
        event = Event(schema, {"x": 10.0, "y": 10.0})
        assert routing.matching_interfaces(event, among=["east"]) == ["east"]
        # Unknown interfaces in `among` are ignored, and tables outside it are
        # neither reported nor probed.
        lookups_before = routing.match_work()[0]
        assert routing.matching_interfaces(event, among=["east", "ghost"]) == ["east"]
        assert routing.match_work()[0] == lookups_before + 1

    def test_event_keys_batch_matches_per_event_keys(self, schema):
        """The batch keys equal each event's own ``Event.key`` and fill it."""
        routing = RoutingTable(schema)
        rng = random.Random(9)
        events = [random_event(schema, rng) for _ in range(30)]
        alone = [Event(schema, e.values, event_id=e.event_id).key for e in events]
        assert routing.event_keys(events) == alone
        assert [vars(e)["key"] for e in events] == alone

    def test_a_fresh_routing_table_keys_events_and_has_done_no_work(self, schema):
        routing = RoutingTable(schema)
        event = Event(schema, {"x": 1.0, "y": 1.0})
        assert event.key == MatchIndex(schema).event_key(event.cells)
        assert routing.event_keys([event]) == [event.key]
        assert routing.match_work() == (0, 0, 0)


TOPOLOGIES = {
    "tree": tree_topology(7),
    "chain": chain_topology(5),
    "star": star_topology(6),
}


class TestNetworkMatching:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("covering", ["none", "approximate"])
    def test_delivery_audit_clean_on_all_topologies(
        self, schema, topology, covering, table_path
    ):
        """Acceptance: zero missed and zero spurious deliveries on tree,
        chain and star overlays, every table scanning or every one indexed."""
        rng = random.Random(42)
        network = BrokerNetwork.from_topology(
            schema,
            TOPOLOGIES[topology],
            covering=covering,
            config=IndexConfig(),
        )
        num_brokers = len(network.brokers)
        for i in range(60):
            network.subscribe(
                rng.randrange(num_brokers),
                f"client-{i}",
                random_subscription(schema, rng, f"sub-{i}", max_width=25.0),
            )
        for i in range(40):
            missed, extra = network.publish_and_audit(
                rng.randrange(num_brokers), random_event(schema, rng)
            )
            assert missed == set()
            assert extra == set()

    def test_audit_clean_under_unsubscription_churn(self, schema, table_path):
        rng = random.Random(77)
        network = BrokerNetwork.from_topology(schema, tree_topology(5), covering="approximate")
        live = {}
        for step in range(80):
            if rng.random() < 0.6 or not live:
                sub = random_subscription(schema, rng, f"s{step}", max_width=25.0)
                client = f"c{step}"
                live[client] = sub
                network.subscribe(rng.randrange(5), client, sub)
            else:
                client = rng.choice(list(live))
                sub = live.pop(client)
                assert network.unsubscribe(client, sub.sub_id)
            if step % 4 == 0:
                missed, extra = network.publish_and_audit(
                    rng.randrange(5), random_event(schema, rng)
                )
                assert missed == set()
                assert extra == set()

    def test_publish_batch_equals_sequential_publish(self, schema):
        rng = random.Random(13)
        network = BrokerNetwork.from_topology(schema, tree_topology(7), covering="approximate")
        for i in range(40):
            network.subscribe(
                rng.randrange(7), f"c{i}", random_subscription(schema, rng, f"s{i}")
            )
        events = [random_event(schema, rng) for _ in range(25)]
        batch_deliveries = network.publish_batch(0, events)
        assert batch_deliveries == [network.expected_recipients(e) for e in events]

    def test_publish_batch_works_while_tables_scan(self, schema):
        network = BrokerNetwork.from_topology(schema, chain_topology(3), covering="none")
        sub = Subscription(schema, {"x": (0.0, 50.0)}, sub_id="s")
        network.subscribe(2, "alice", sub)
        hit = Event(schema, {"x": 10.0, "y": 10.0})
        miss = Event(schema, {"x": 90.0, "y": 10.0})
        assert network.publish_batch(0, [hit, miss]) == [{"alice"}, set()]

    def test_match_index_counters_reported(self, schema):
        network = BrokerNetwork.from_topology(schema, chain_topology(3), covering="none")
        network.subscribe(2, "alice", Subscription(schema, {"x": (0.0, 50.0)}, sub_id="s"))
        network.publish(0, Event(schema, {"x": 10.0, "y": 10.0}))
        lookups, _candidates, _false_positives = network.brokers[0].routing_table.match_work()
        assert lookups > 0

    def test_forwarding_after_suppression_clears_pending_entry(self, schema):
        """Regression: a duplicate arrival of a *suppressed* subscription whose
        cover is no longer forwarded is forwarded — it must then leave the
        suppressed set, or a later withdrawal takes the suppressed early-exit
        and leaves the subscription forwarded for good."""
        network = BrokerNetwork.from_topology(schema, chain_topology(2), covering="approximate")
        broker0 = network.brokers[0]
        wide = Subscription(schema, {"x": (0.0, 90.0)}, sub_id="wide")
        narrow = Subscription(schema, {"x": (10.0, 20.0)}, sub_id="narrow")
        network.subscribe(0, "w", wide)
        network.subscribe(0, "n", narrow)
        assert "narrow" in broker0._links[1].suppressed
        # Duplicate suppressed arrival while still covered: stays pending,
        # suppression counter is not double-incremented.
        broker0.receive_subscription("__local__", narrow)
        assert broker0.stats.subscriptions_suppressed == 1
        # Drop the cover from the link's forwarded set behind the broker's
        # back (no withdrawal, so no re-check), then let the duplicate
        # arrive.  The scan finds no cover: it is forwarded — and must leave
        # the suppressed set as it goes.
        broker0._links[1].withdraw("wide")
        broker0.receive_subscription("__local__", narrow)
        assert broker0.has_forwarded(1, "narrow")
        assert "narrow" not in broker0._links[1].suppressed
        # Withdrawal must now reach the forwarded set (no suppressed
        # early-exit hiding the forwarded state), so no ghost cover survives.
        network.unsubscribe("n", "narrow")
        assert not broker0.has_forwarded(1, "narrow")
        later = Subscription(schema, {"x": (12.0, 15.0)}, sub_id="later")
        network.subscribe(0, "l", later)
        assert broker0.has_forwarded(1, "later")


# Point-in-rectangle tests: ``Subscription.matches`` is an early-exit loop
# over the attributes; the match index and a scanning table make the packed
# test (one integer expression over fields of ``order + 1`` bits).  Each
# must answer exactly what ``all(lo <= c <= hi ...)`` answers, at every order
# and number of attributes the packing has to keep apart.
_ORDER = 4


@st.composite
def rectangle_and_point(draw):
    """An order, per-axis ``(lo, hi)`` cell ranges and a point often on or beside a boundary."""
    order = draw(st.integers(1, 20))
    max_cell = (1 << order) - 1
    dims = draw(st.integers(1, 8))
    ranges, cells = [], []
    for _ in range(dims):
        lo = draw(st.integers(0, max_cell))
        hi = draw(st.integers(lo, max_cell))
        near = [max(lo - 1, 0), lo, hi, min(hi + 1, max_cell), 0, max_cell]
        cells.append(draw(st.sampled_from(near) | st.integers(0, max_cell)))
        ranges.append((lo, hi))
    return tuple(ranges), tuple(cells), order


def identity_schema(dims, order):
    """A schema whose attribute ``i`` spans ``[0, max cell]``: every integer quantises to itself."""
    return AttributeSchema(
        [Attribute(f"a{axis}", 0.0, float((1 << order) - 1)) for axis in range(dims)],
        order=order,
    )


@given(rectangle_and_point(), st.integers(1, 4))
# An enclosure's two corners and a cell just outside each of them; then the
# same rectangle stored under four ids, every one of them reported.
@example((((4, 9), (10, 14)), (4, 10), _ORDER), 1)
@example((((4, 9), (10, 14)), (9, 14), _ORDER), 1)
@example((((4, 9), (10, 14)), (3, 10), _ORDER), 1)
@example((((4, 9), (10, 14)), (9, 15), _ORDER), 1)
@example((((4, 9), (10, 14)), (6, 12), _ORDER), 4)
def test_rectangle_checks_equal_all_of_the_axis_tests(case, copies):
    ranges, cells, order = case
    expected = all(lo <= c <= hi for (lo, hi), c in zip(ranges, cells))
    schema = identity_schema(len(ranges), order)
    names = schema.names
    subscription = Subscription(
        schema, {name: (float(lo), float(hi)) for name, (lo, hi) in zip(names, ranges)}
    )
    event = Event(schema, {name: float(c) for name, c in zip(names, cells)})
    assert subscription.ranges == ranges and event.cells == cells
    assert subscription.matches(event) is expected
    index = MatchIndex(schema)
    table = InterfaceTable("scan", schema)
    sub_ids = [f"s{i}" for i in range(copies)]
    for sub_id in sub_ids:
        index.add(sub_id, ranges)
        table.add(Subscription(schema, subscription.constraints, sub_id=sub_id))
    assert index.any_match(cells) is expected
    assert index.matching_ids(cells) == (sub_ids if expected else [])
    assert index.any_match(cells, None, event.point) is expected
    assert table.match_index is None
    assert table.any_match(event) is expected
    assert table.matching_ids(event) == ((sub_ids if expected else []), copies)


@st.composite
def rectangles_past_the_scan(draw):
    """``rectangle_and_point``'s order and attributes, with the rectangles a table
    scans up to ``SCAN_LIMIT``, the one that builds its index, and one to eight
    adds into that index (some of them replacing an earlier id), plus probe cells."""
    ranges, cells, order = draw(rectangle_and_point())
    max_cell = (1 << order) - 1
    # The other rectangles come from a drawn seed: a few hundred bounds drawn
    # one by one would make generating an example cost more than checking it.
    rng = random.Random(draw(st.integers(0, 2**32)))

    def rectangle():
        bounds = []
        for _ in ranges:
            lo = rng.randint(0, max_cell)
            bounds.append((lo, rng.randint(lo, max_cell)))
        return tuple(bounds)

    built = InterfaceTable.SCAN_LIMIT + 1
    later = draw(st.integers(1, 8))
    rects = [ranges] + [rectangle() for _ in range(built - 1 + later)]
    sub_ids = [f"s{i}" for i in range(built)]
    for i in range(later):
        sub_ids.append(draw(st.sampled_from(sub_ids) | st.just(f"s{built + i}")))
    probes = [cells] + [tuple(lo for lo, _ in rect) for rect in rects[::4]]
    probes += [tuple(rng.randint(0, max_cell) for _ in ranges) for _ in range(3)]
    return order, list(zip(sub_ids, rects)), probes


@given(rectangles_past_the_scan())
def test_a_handed_over_box_stores_what_validation_stores(case):
    """A table past ``SCAN_LIMIT`` hands each subscription's ranges and packed box
    to its index, which validates and packs neither again; a bare index fed the
    same ranges through the validating ``add`` ends in the same state and
    answers the same."""
    order, items, probes = case
    schema = identity_schema(len(items[0][1]), order)
    names = schema.names

    def subscription(sub_id, ranges):
        constraints = {name: (float(lo), float(hi)) for name, (lo, hi) in zip(names, ranges)}
        made = Subscription(schema, constraints, sub_id=sub_id)
        assert made.ranges == ranges
        return made

    events = [Event(schema, {name: float(c) for name, c in zip(names, cells)}) for cells in probes]
    built = InterfaceTable.SCAN_LIMIT + 1
    table = InterfaceTable("t", schema)
    for sub_id, ranges in items[:built]:
        table.add(subscription(sub_id, ranges))
    index = table.match_index
    assert index is not None
    bare = MatchIndex(schema)
    bare.add_batch(items[:built])  # what the table's build loads
    with patch.object(index, "_validate_ranges", side_effect=AssertionError("re-validated")):
        for sub_id, ranges in items[built:]:
            table.add(subscription(sub_id, ranges))
            bare.add(sub_id, ranges)
            for event in events:
                assert table.matching_ids(event)[0] == bare.matching_ids(event.cells)
    assert index._box_of_slot == bare._box_of_slot
    assert index._slot_of == bare._slot_of
    assert index.stats == bare.stats
    assert index.precision_bits == bare.precision_bits
    for slot in bare._box_of_slot:
        assert index._flat.runs_of(slot) == bare._flat.runs_of(slot)


@st.composite
def nested_boxes(draw):
    """An order and two boxes whose bounds are often equal, touching or one apart."""
    order = draw(st.integers(1, 20))
    max_cell = (1 << order) - 1
    dims = draw(st.integers(1, 8))
    outer, inner = [], []
    for _ in range(dims):
        lo = draw(st.integers(0, max_cell))
        hi = draw(st.integers(lo, max_cell))
        lows = [lo, max(lo - 1, 0), min(lo + 1, max_cell), 0, hi]
        highs = [hi, max(hi - 1, 0), min(hi + 1, max_cell), max_cell, lo]
        a = draw(st.sampled_from(lows) | st.integers(0, max_cell))
        b = draw(st.sampled_from(highs) | st.integers(0, max_cell))
        outer.append((lo, hi))
        inner.append((min(a, b), max(a, b)))
    return order, tuple(outer), tuple(inner)


@given(nested_boxes(), st.integers(1, 3))
# Equal boxes, bounds touching and one apart, at 0 and at the top cell, and a
# miss on the last attribute only.
@example((4, ((0, 15),), ((0, 15),)), 1)
@example((4, ((0, 14),), ((0, 15),)), 2)
@example((4, ((1, 15),), ((0, 15),)), 1)
@example((4, ((0, 0),), ((0, 0),)), 1)
@example((4, ((3, 7), (0, 15)), ((7, 7), (15, 15))), 1)
@example((4, ((3, 7), (0, 15)), ((7, 8), (15, 15))), 1)
@example((4, ((0, 15), (0, 15), (2, 5)), ((0, 15), (0, 15), (1, 5))), 3)
@example((20, ((0, (1 << 20) - 1),) * 8, ((0, (1 << 20) - 1),) * 8), 1)
@example((20, ((0, (1 << 20) - 2),) * 8, ((0, (1 << 20) - 1),) * 8), 1)
def test_covering_checks_equal_all_of_the_axis_tests(case, copies):
    """``first_covering`` and a broker link's check answer as ``ranges_cover``
    and the rectangle oracle do."""
    order, outer, inner = case
    expected = ranges_cover(outer, inner)
    as_rectangle = lambda ranges: Rectangle(  # noqa: E731
        tuple(lo for lo, _ in ranges), tuple(hi for _, hi in ranges)
    )
    assert contains(as_rectangle(outer), as_rectangle(inner)) is expected
    guard = packed_guard(len(outer), order)
    sub_ids = [f"s{i}" for i in range(copies)]
    stored = [(sub_id, pack_box(outer, order)) for sub_id in sub_ids]
    first = ("s0", 1) if expected else (None, copies)
    assert first_covering(stored, pack_box(inner, order), guard) == first
    schema = identity_schema(len(outer), order)
    names = schema.names
    constraints = lambda ranges: {  # noqa: E731
        name: (float(lo), float(hi)) for name, (lo, hi) in zip(names, ranges)
    }
    broker = Broker(0, schema)
    link = LinkState()
    for sub_id in sub_ids:
        link.forward(Subscription(schema, constraints(outer), sub_id=sub_id))
    query = Subscription(schema, constraints(inner))
    assert query.ranges == inner and link.forwarded["s0"].ranges == outer
    assert broker._covering_check(link, query) == first[0]
    assert broker.stats.covering_check_runs == first[1]
