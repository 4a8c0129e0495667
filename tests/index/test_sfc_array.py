"""Tests for the SFC array (repro.index.sfc_array)."""

from __future__ import annotations

import random

import pytest

from repro.geometry.universe import Universe
from repro.index.sfc_array import SFCArray, SFCArrayStats
from repro.sfc.gray import GrayCodeCurve
from repro.sfc.hilbert import HilbertCurve
from repro.sfc.zorder import ZOrderCurve

#: Every curve, as its ``kind`` in test ids.
CURVES = (ZOrderCurve, HilbertCurve, GrayCodeCurve)
CURVE_IDS = [curve.kind for curve in CURVES]


def point_of(array, item_id):
    """The point ``item_id`` is stored at (read off the array's items), or ``None``."""
    return next((item.point for item in array.items() if item.item_id == item_id), None)


@pytest.fixture(params=["fresh", "churned"])
def layout(request):
    """The array's history before a test: ``fresh`` is new; ``churned`` has
    taken ballast adds, removals and a re-add at an occupied cell, every
    ballast item is gone again and its counters are reset, so the key list
    and the buckets a test starts from have been through ``del``."""
    return request.param


def churn(array):
    cells = [(i, (7 * i) % 32) for i in range(0, 32, 3)]
    for i, cell in enumerate(cells):
        array.add(("ballast", i), cell)
    array.add(("twin", 0), cells[0])
    array.add(("ballast", 0), cells[0])  # re-added at its own, occupied cell
    for i in range(0, len(cells), 2):
        array.remove(("ballast", i))
    array.remove(("twin", 0))
    for i in range(1, len(cells), 2):
        array.remove(("ballast", i))
    assert len(array) == 0 and list(array.keys()) == []
    array.stats = SFCArrayStats()


@pytest.fixture(params=CURVES, ids=CURVE_IDS)
def array(request, layout):
    array = SFCArray(request.param(Universe(dims=2, order=5)))
    if layout == "churned":
        churn(array)
    return array


class TestSFCArrayUpdates:
    def test_add_and_contains(self, array):
        key = array.add("a", (3, 4))
        assert "a" in array
        assert len(array) == 1
        assert point_of(array, "a") == (3, 4)
        assert key == array.curve.key((3, 4))

    def test_add_validates_point(self, array):
        with pytest.raises(ValueError):
            array.add("a", (99, 0))

    def test_remove(self, array):
        array.add("a", (3, 4))
        assert array.remove("a")
        assert not array.remove("a")
        assert "a" not in array
        assert point_of(array, "a") is None

    def test_re_add_moves_item(self, array):
        array.add("a", (1, 1))
        array.add("a", (9, 9))
        assert len(array) == 1
        assert point_of(array, "a") == (9, 9)

    def test_duplicate_points_different_ids(self, array):
        array.add("a", (5, 5))
        array.add("b", (5, 5))
        assert len(array) == 2
        array.remove("a")
        assert "b" in array
        assert point_of(array, "b") == (5, 5)

    def test_re_add_at_the_same_point_moves_to_the_end_of_its_bucket(self, array):
        for item_id in "abc":
            array.add(item_id, (6, 6))
        array.add("a", (6, 6))
        assert [item.item_id for item in array.items()] == ["b", "c", "a"]
        key = array.curve.key((6, 6))
        assert array.first_in_key_range((key, key)).item_id == "b"
        assert list(array.keys()) == [key]

    def test_a_re_add_counts_a_delete_and_an_insert(self, array):
        array.add("a", (1, 2))
        array.add("a", (3, 4))
        assert (array.stats.inserts, array.stats.deletes) == (2, 1)
        assert list(array.keys()) == [array.curve.key((3, 4))]

    def test_stats_counters(self, array):
        array.add("a", (1, 2))
        array.add("b", (3, 4))
        array.remove("a")
        array.first_in_key_range((0, array.universe.max_key))
        list(array.items_in_key_range((0, array.universe.max_key)))
        assert array.stats.inserts == 2
        assert array.stats.deletes == 1
        assert array.stats.range_probes == 1
        assert array.stats.range_scans == 1
        assert array.stats.items_scanned == 1


class TestSFCArrayQueries:
    def test_first_in_key_range_hits_and_misses(self, array):
        array.add("a", (0, 0))
        array.add("b", (31, 31))
        key_a = array.curve.key((0, 0))
        key_b = array.curve.key((31, 31))
        hit = array.first_in_key_range((key_a, key_a))
        assert hit is not None and hit.item_id == "a"
        hit = array.first_in_key_range((key_b, key_b))
        assert hit is not None and hit.item_id == "b"
        assert array.first_in_key_range((key_a + 1, key_b - 1)) is None

    def test_items_in_key_range_returns_all(self, array):
        points = {(i, i) for i in range(10)}
        for i, p in enumerate(sorted(points)):
            array.add(f"item-{i}", p)
        found = {item.point for item in array.items_in_key_range((0, array.universe.max_key))}
        assert found == points

    def test_count_in_key_range(self, array):
        for i in range(8):
            array.add(i, (i, 0))
        array.add("twin", (3, 0))  # shares a cell, so one key holds two items
        total = sum(1 for _ in array.items_in_key_range((0, array.universe.max_key)))
        assert total == 9
        keys = sorted(array.curve.key((i, 0)) for i in range(8))
        for lo in keys:
            for hi in keys:
                if hi < lo:
                    continue
                expected = sum(1 for item in array.items() if lo <= array.curve.key(item.point) <= hi)
                assert sum(1 for _ in array.items_in_key_range((lo, hi))) == expected

    def test_items_are_in_key_order(self, array):
        rng = random.Random(3)
        for i in range(50):
            array.add(i, (rng.randint(0, 31), rng.randint(0, 31)))
        keys = [array.curve.key(item.point) for item in array.items()]
        assert keys == sorted(keys)

    def test_an_emptied_cell_leaves_the_key_list(self, array):
        array.add("a", (4, 4))
        array.add("b", (4, 4))
        array.add("c", (9, 9))
        key = array.curve.key((4, 4))
        array.remove("a")
        assert key in list(array.keys())
        array.remove("b")
        assert list(array.keys()) == [array.curve.key((9, 9))]
        assert array.first_in_key_range((key, key)) is None
        assert list(array.items_in_key_range((key, key))) == []
        array.add("a", (4, 4))
        assert array.first_in_key_range((key, key)).item_id == "a"

    def test_keys_distinct_and_sorted(self, array):
        array.add("a", (1, 1))
        array.add("b", (1, 1))
        array.add("c", (2, 2))
        keys = list(array.keys())
        assert keys == sorted(set(keys))
        assert len(keys) == 2


class TestFirstProbeHit:
    """The whole-schedule probe against its definition: first_in_key_range per
    probe in search order, stopping at the first hit.  The item counts, 0–40
    against eight probes, select no branch (there is one loop); they vary how
    full the array is, from empty to denser than the schedule."""

    @staticmethod
    def schedule(rng, max_key, probes):
        """``probes`` disjoint key ranges in a shuffled search order: ``(los, his)``."""
        cuts = sorted(rng.sample(range(max_key + 1), 2 * probes))
        ranges = list(zip(cuts[0::2], cuts[1::2]))
        rng.shuffle(ranges)
        return [lo for lo, _ in ranges], [hi for _, hi in ranges]

    @pytest.mark.parametrize("items", [0, 1, 7, 8, 9, 40])
    def test_matches_the_probe_loop(self, array, items):
        """Eight probes against 0–40 items: the answer and the probe count are
        those of first_in_key_range on each probe in turn."""
        rng = random.Random(items)
        max_key = array.universe.max_key
        for i in range(items):
            array.add(i, (rng.randint(0, 31), rng.randint(0, 31)))
        for i in range(0, items, 4):
            array.remove(i)
        for i in range(0, items, 8):
            array.add(i, point_of(array, i + 1) or (5, 5))  # shares a cell
        for _ in range(60):
            los, his = self.schedule(rng, max_key, 8)
            before = array.stats.range_probes
            expected = None
            for probe, key_range in enumerate(zip(los, his)):
                item = array.first_in_key_range(key_range)
                if item is not None:
                    expected = (probe, item)
                    break
            probes = array.stats.range_probes - before
            assert array.first_probe_hit(los, his) == expected
            assert array.stats.range_probes - before == 2 * probes

    @pytest.mark.parametrize("items", [1, 7, 9, 40])
    def test_exclude_answers_as_the_array_without_the_item(self, array, items):
        """Excluding an item gives the hit and probe count of a copy that never
        held it, whether the item shares its cell or not, and leaves the
        array's item order alone."""
        rng = random.Random(items)
        max_key = array.universe.max_key
        for i in range(items):
            array.add(i, (rng.randint(0, 31), rng.randint(0, 31)))
        for i in range(0, items, 3):
            array.add(("twin", i), point_of(array, i))
        before = list(array.items())
        for excluded in [None, "absent", *(item.item_id for item in before)]:
            without = SFCArray(array.curve)
            for item in before:
                if item.item_id != excluded:
                    without.add(item.item_id, item.point)
            for _ in range(10):
                los, his = self.schedule(rng, max_key, 8)
                start, start_without = array.stats.range_probes, without.stats.range_probes
                expected = without.first_probe_hit(los, his)
                assert array.first_probe_hit(los, his, exclude=excluded) == expected
                assert (
                    array.stats.range_probes - start
                    == without.stats.range_probes - start_without
                )
        assert list(array.items()) == before

    def test_empty_schedule_and_empty_array(self, array):
        assert array.first_probe_hit([], []) is None
        array.add("a", (1, 1))
        assert array.first_probe_hit([], []) is None
        assert array.stats.range_probes == 0


@pytest.mark.parametrize("curve_cls", CURVES, ids=CURVE_IDS)
def test_range_scans_equal_a_brute_force_scan(curve_cls):
    """200 adds and 67 removes, then 50 range scans against a scan of every
    live point."""
    universe = Universe(dims=2, order=6)
    curve = curve_cls(universe)
    rng = random.Random(11)
    points = [(rng.randint(0, 63), rng.randint(0, 63)) for _ in range(200)]
    ranges = [
        tuple(sorted((rng.randint(0, universe.max_key), rng.randint(0, universe.max_key))))
        for _ in range(50)
    ]
    array = SFCArray(curve)
    for i, p in enumerate(points):
        array.add(i, p)
    for i in range(0, 200, 3):
        array.remove(i)
    live = {i: curve.key(p) for i, p in enumerate(points) if i % 3}
    for lo, hi in ranges:
        found = sorted(item.item_id for item in array.items_in_key_range((lo, hi)))
        assert found == sorted(i for i, key in live.items() if lo <= key <= hi)
