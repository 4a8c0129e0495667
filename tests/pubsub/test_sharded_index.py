"""Unit tests for :class:`ShardedMatchIndex`, the in-process sharded match store.

The contract under test: the shards partition the subscription set —
round-robin in arrival order, a replacement staying in its shard — so every
answer equals a linear scan over all live rectangles, each match is reported
exactly once, and the counters are the shards' sums.  Cross-backend parity
under random churn lives in ``test_backend_parity.py``; this module pins the
placement, removal and bookkeeping behaviour of the sharded store itself.
"""

from __future__ import annotations

import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.config import IndexConfig
from repro.pubsub.match_index import MatchIndex
from repro.pubsub.routing_table import InterfaceTable
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.sharded_index import ShardedMatchIndex
from repro.pubsub.subscription import Event, Subscription

SIDE = 32  # order-5 grid: cells 0..31 per dimension
ALL_CELLS = [(x, y) for x in range(SIDE) for y in range(SIDE)]


def _schema(order=5):
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=order
    )


def _random_ranges(rng, max_width=10):
    lo_x, lo_y = rng.randrange(SIDE), rng.randrange(SIDE)
    return (
        (lo_x, min(SIDE - 1, lo_x + rng.randrange(max_width))),
        (lo_y, min(SIDE - 1, lo_y + rng.randrange(max_width))),
    )


def _brute_force(rects, cells):
    return sorted(
        sid
        for sid, rect in rects.items()
        if all(lo <= c <= hi for (lo, hi), c in zip(rect, cells))
    )


def _shard_of(index, sub_id):
    """The one shard holding ``sub_id`` (fails if it is held by none or several)."""
    holders = [i for i, shard in enumerate(index._indexes) if sub_id in shard]
    assert len(holders) == 1, holders
    return holders[0]


class TestConstruction:
    def test_empty_index(self):
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=3))
        assert len(index) == 0
        assert 0 not in index
        assert index.segment_count() == 0
        assert not index.any_match((5, 5))
        assert index.matching_ids((5, 5)) == []
        assert index.matching_ids_batch([(0, 0), (31, 31)]) == [[], []]
        assert index.any_match_batch([(0, 0), (31, 31)]) == [False, False]
        assert index.remove("absent") is False

    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_shard_count_comes_from_config(self, shards):
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=shards))
        assert index.shards == shards
        assert len(index._indexes) == shards
        assert all(isinstance(shard, MatchIndex) for shard in index._indexes)

    def test_default_config_uses_the_default_shard_count(self):
        index = ShardedMatchIndex(_schema())
        assert index.shards == IndexConfig().shards
        assert index.config.backend == "sharded"

    def test_config_is_marked_sharded(self):
        # A caller may hand over a flat config; the index records what it is.
        index = ShardedMatchIndex(
            _schema(), config=IndexConfig(backend="flat", shards=2, run_budget=7)
        )
        assert index.config == IndexConfig(backend="sharded", shards=2, run_budget=7)

    def test_settable_parameters(self):
        params = list(inspect.signature(ShardedMatchIndex).parameters)
        assert params == ["schema", "config", "run_cache"]

    @pytest.mark.parametrize("curve", ["zorder", "hilbert", "gray"])
    def test_every_shard_shares_the_curve_and_run_budget(self, curve):
        config = IndexConfig(curve=curve, shards=3, run_budget=5)
        index = ShardedMatchIndex(_schema(), config=config)
        flat = MatchIndex(_schema(), config=config)
        assert index.run_budget == 5
        for shard in index._indexes:
            assert shard.run_budget == 5
        for cells in [(0, 0), (3, 17), (31, 31), (16, 8)]:
            assert index.event_key(cells) == flat.event_key(cells)


class TestPlacement:
    def test_round_robin_in_arrival_order(self):
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=3))
        rng = random.Random(1)
        for sid in range(10):
            index.add(f"s{sid}", _random_ranges(rng))
        assert [_shard_of(index, f"s{sid}") for sid in range(10)] == [
            sid % 3 for sid in range(10)
        ]
        assert [len(shard) for shard in index._indexes] == [4, 3, 3]

    def test_replacement_stays_in_its_shard_and_keeps_the_cursor(self):
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=3))
        index.add("a", ((0, 3), (0, 3)))
        index.add("b", ((4, 7), (4, 7)))
        index.add("a", ((20, 25), (20, 25)))  # replaces, does not advance
        assert len(index) == 2
        assert _shard_of(index, "a") == 0
        assert index.matching_ids((1, 1)) == []
        assert index.matching_ids((22, 22)) == ["a"]
        index.add("c", ((8, 9), (8, 9)))
        assert _shard_of(index, "c") == 2

    def test_a_removed_id_comes_back_on_the_next_shard(self):
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=3))
        for sid in range(3):
            index.add(sid, ((sid, sid), (0, 31)))
        assert index.remove(0)
        index.add(0, ((0, 0), (0, 31)))  # cursor wrapped to shard 0 again
        assert _shard_of(index, 0) == 0
        index.add(3, ((3, 3), (0, 31)))
        assert _shard_of(index, 3) == 1

    def test_add_batch_places_like_sequential_adds(self):
        rng = random.Random(4)
        items = [(sid, _random_ranges(rng)) for sid in range(23)]
        sequential = ShardedMatchIndex(_schema(), config=IndexConfig(shards=4))
        for sid, ranges in items:
            sequential.add(sid, ranges)
        batched = ShardedMatchIndex(_schema(), config=IndexConfig(shards=4))
        batched.add_batch(items)
        for sid, _ in items:
            assert _shard_of(batched, sid) == _shard_of(sequential, sid)
        for cells in ALL_CELLS[::7]:
            assert sorted(batched.matching_ids(cells)) == sorted(
                sequential.matching_ids(cells)
            )

    def test_add_batch_with_a_repeated_id_keeps_its_last_rectangle(self):
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=2))
        index.add_batch(
            [("a", ((0, 3), (0, 3))), ("b", ((10, 12), (10, 12))), ("a", ((20, 22), (20, 22)))]
        )
        assert len(index) == 2
        assert index.matching_ids((1, 1)) == []
        assert index.matching_ids((21, 21)) == ["a"]
        assert (_shard_of(index, "a"), _shard_of(index, "b")) == (0, 1)

    def test_add_batch_replacement_stays_in_its_shard(self):
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=3))
        index.add_batch([(sid, ((sid, sid), (sid, sid))) for sid in range(4)])
        index.add_batch([(1, ((30, 31), (30, 31))), (4, ((4, 4), (4, 4)))])
        assert len(index) == 5
        assert _shard_of(index, 1) == 1
        assert _shard_of(index, 4) == 1  # the cursor only moved for the new id
        assert index.matching_ids((1, 1)) == []
        assert index.matching_ids((31, 30)) == [1]

    def test_pure_adds_keep_shards_within_one_of_each_other(self):
        rng = random.Random(8)
        for shards in (2, 3, 7):
            index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=shards))
            for sid in range(50):
                index.add(sid, _random_ranges(rng))
                sizes = [len(shard) for shard in index._indexes]
                assert max(sizes) - min(sizes) <= 1
                assert sum(sizes) == len(index)


class TestQueries:
    def test_simple_enclosure(self):
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=2))
        index.add("box", ((4, 9), (10, 20)))
        assert index.matching_ids((4, 10)) == ["box"]  # low corner
        assert index.matching_ids((9, 20)) == ["box"]  # high corner
        assert index.matching_ids((6, 15)) == ["box"]
        assert index.matching_ids((3, 15)) == []
        assert index.matching_ids((6, 21)) == []
        assert index.any_match((6, 15)) and not index.any_match((10, 15))

    def test_duplicate_rectangles_are_both_reported(self):
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=3))
        for sid in ("p", "q", "r", "s"):
            index.add(sid, ((2, 5), (2, 5)))
        assert sorted(index.matching_ids((3, 3))) == ["p", "q", "r", "s"]
        assert {_shard_of(index, sid) for sid in "pqrs"} == {0, 1, 2}

    @pytest.mark.parametrize("shards", [1, 3, 7])
    def test_matches_brute_force_on_random_workload(self, shards):
        rng = random.Random(shards)
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=shards))
        rects = {}
        for sid in range(80):
            rects[sid] = _random_ranges(rng, max_width=14)
            index.add(sid, rects[sid])
        for cells in ALL_CELLS:
            matched = index.matching_ids(cells)
            assert len(matched) == len(set(matched))  # each match reported once
            assert sorted(matched) == _brute_force(rects, cells)
            assert index.any_match(cells) == bool(matched)

    def test_coarsened_runs_stay_exact(self):
        # A run budget of 1 forces every subscription onto one coarse key run;
        # the rectangle check must still filter out every false positive.
        rng = random.Random(12)
        config = IndexConfig(shards=3, run_budget=1)
        index = ShardedMatchIndex(_schema(), config=config)
        rects = {sid: _random_ranges(rng) for sid in range(40)}
        index.add_batch(list(rects.items()))
        for cells in ALL_CELLS[::3]:
            assert sorted(index.matching_ids(cells)) == _brute_force(rects, cells)

    def test_matches_are_concatenated_in_shard_order(self):
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=3))
        for sid in ("a", "b", "c", "d", "e"):
            index.add(sid, ((0, 31), (0, 31)))
        # shards hold [a, d], [b, e], [c]
        matched = index.matching_ids((7, 7))
        assert [_shard_of(index, sid) for sid in matched] == [0, 0, 1, 1, 2]

    def test_a_precomputed_key_gives_the_same_answer(self):
        rng = random.Random(3)
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=4))
        index.add_batch([(sid, _random_ranges(rng)) for sid in range(30)])
        for cells in ALL_CELLS[::11]:
            key = index.event_key(cells)
            assert index.matching_ids(cells, key) == index.matching_ids(cells)
            assert index.any_match(cells, key) == index.any_match(cells)

    def test_batch_queries_take_precomputed_keys(self):
        rng = random.Random(5)
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=3))
        index.add_batch([(sid, _random_ranges(rng)) for sid in range(30)])
        events = ALL_CELLS[::13]
        keys = index.curve.keys(events)
        assert index.matching_ids_batch(events, keys=keys) == [
            index.matching_ids(e) for e in events
        ]
        assert index.any_match_batch(events, keys=keys) == [
            index.any_match(e) for e in events
        ]

    def test_one_shard_answers_like_a_flat_index(self):
        rng = random.Random(9)
        items = [(sid, _random_ranges(rng)) for sid in range(60)]
        config = IndexConfig(shards=1)
        sharded = ShardedMatchIndex(_schema(), config=config)
        flat = MatchIndex(_schema(), config=config)
        sharded.add_batch(items)
        flat.add_batch(items)
        assert sharded.segment_count() == flat.segment_count()
        for cells in ALL_CELLS[::5]:
            assert sharded.matching_ids(cells) == flat.matching_ids(cells)


class TestRemoval:
    def test_remove_drops_the_entry(self):
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=2))
        index.add("a", ((0, 10), (0, 10)))
        index.add("b", ((5, 15), (5, 15)))
        assert index.remove("a") is True
        assert "a" not in index and len(index) == 1
        assert index.matching_ids((7, 7)) == ["b"]
        assert index.matching_ids((2, 2)) == []
        assert index.remove("a") is False

    def test_removing_an_unknown_id_changes_nothing(self):
        rng = random.Random(6)
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=3))
        index.add_batch([(sid, _random_ranges(rng)) for sid in range(5)])
        before = [sorted(index.matching_ids(c)) for c in ALL_CELLS]
        segments = index.segment_count()
        assert index.remove("ghost") is False
        assert len(index) == 5 and index.segment_count() == segments
        assert [sorted(index.matching_ids(c)) for c in ALL_CELLS] == before
        index.add("next", ((0, 0), (0, 0)))
        assert _shard_of(index, "next") == 2  # the cursor did not move

    def test_mass_delete_keeps_answers_consistent(self):
        rng = random.Random(21)
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=4))
        rects = {sid: _random_ranges(rng, max_width=12) for sid in range(150)}
        index.add_batch(list(rects.items()))
        doomed = rng.sample(sorted(rects), 100)
        for sid in doomed:
            assert index.remove(sid)
            del rects[sid]
        assert len(index) == 50
        for cells in ALL_CELLS[::2]:
            assert sorted(index.matching_ids(cells)) == _brute_force(rects, cells)
        for sid in list(rects):
            assert index.remove(sid)
        assert len(index) == 0
        assert index.segment_count() == 0
        assert not any(index.any_match_batch(ALL_CELLS))


class TestCounters:
    def test_stats_are_the_sum_of_the_shards(self):
        rng = random.Random(2)
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=3))
        index.add_batch([(sid, _random_ranges(rng)) for sid in range(12)])
        index.remove(4)
        for cells in ALL_CELLS[::17]:
            index.matching_ids(cells)
        stats = index.stats
        for field in vars(stats):
            assert getattr(stats, field) == sum(
                getattr(shard.stats, field) for shard in index._indexes
            )
        assert stats.inserts == 12 and stats.removals == 1

    def test_stats_are_a_snapshot(self):
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=2))
        index.add("a", ((0, 5), (0, 5)))
        snapshot = index.stats
        snapshot.inserts = 99
        index.add("b", ((6, 9), (6, 9)))
        assert snapshot.inserts == 99
        assert index.stats.inserts == 2

    def test_segment_count_is_the_sum_of_the_shards(self):
        rng = random.Random(10)
        index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=5))
        index.add_batch([(sid, _random_ranges(rng)) for sid in range(40)])
        assert index.segment_count() == sum(
            shard.segment_count() for shard in index._indexes
        )
        assert index.segment_count() > 0


def test_a_sharded_interface_table_delivers_like_a_flat_one():
    """An interface table configured ``backend="sharded"`` indexes through a
    :class:`ShardedMatchIndex` once it outgrows its scan, and matches the same
    subscriptions as a flat one."""
    schema = _schema(order=6)
    rng = random.Random(14)
    tables = {
        backend: InterfaceTable(
            "i", schema, config=IndexConfig(backend=backend, shards=3)
        )
        for backend in ("flat", "sharded")
    }
    for sid in range(3 * InterfaceTable.SCAN_LIMIT):
        lo_x, lo_y = rng.uniform(0, 80), rng.uniform(0, 80)
        sub = Subscription(
            schema,
            {"x": (lo_x, lo_x + rng.uniform(1, 20)), "y": (lo_y, lo_y + rng.uniform(1, 20))},
            sub_id=sid,
        )
        for table in tables.values():
            table.add(sub)
    assert type(tables["sharded"].match_index) is ShardedMatchIndex
    assert type(tables["flat"].match_index) is MatchIndex
    for _ in range(100):
        event = Event(schema, {"x": rng.uniform(0, 100), "y": rng.uniform(0, 100)})
        ids = {name: sorted(table.matching_ids(event)[0]) for name, table in tables.items()}
        assert ids["sharded"] == ids["flat"]
        assert tables["sharded"].any_match(event) == bool(ids["flat"])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(
        st.tuples(st.booleans(), st.integers(0, 15), st.integers(0, 31), st.integers(0, 31)),
        max_size=50,
    ),
)
def test_every_live_id_sits_in_exactly_one_shard(shards, ops):
    index = ShardedMatchIndex(_schema(), config=IndexConfig(shards=shards))
    live = set()
    for is_add, sid, a, b in ops:
        if is_add:
            index.add(sid, ((min(a, b), max(a, b)), (0, 31)))
            live.add(sid)
        else:
            assert index.remove(sid) == (sid in live)
            live.discard(sid)
        assert len(index) == len(live)
        assert sum(len(shard) for shard in index._indexes) == len(live)
        for sid_ in live:
            _shard_of(index, sid_)
