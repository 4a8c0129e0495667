"""Tests for the SFC array (repro.index.sfc_array) across all backends."""

from __future__ import annotations

import random

import pytest

from repro.geometry.universe import Universe
from repro.index.backends import BACKEND_NAMES, make_backend
from repro.index.sfc_array import SFCArray
from repro.sfc.zorder import ZOrderCurve


@pytest.fixture(params=BACKEND_NAMES)
def array(request):
    universe = Universe(dims=2, order=5)
    return SFCArray(ZOrderCurve(universe), backend=request.param, seed=1)


class TestBackendFactory:
    def test_all_names_construct(self):
        for name in BACKEND_NAMES:
            backend = make_backend(name)
            backend.insert(3, "x")
            assert backend.get(3) == "x"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_backend("btree")

    def test_backend_instance_passthrough(self):
        universe = Universe(dims=2, order=3)
        backend = make_backend("sortedlist")
        array = SFCArray(ZOrderCurve(universe), backend=backend)
        array.add("a", (1, 1))
        assert len(array) == 1


class TestSFCArrayUpdates:
    def test_add_and_contains(self, array):
        key = array.add("a", (3, 4))
        assert "a" in array
        assert len(array) == 1
        assert array.point_of("a") == (3, 4)
        assert key == array.curve.key((3, 4))

    def test_add_validates_point(self, array):
        with pytest.raises(ValueError):
            array.add("a", (99, 0))

    def test_remove(self, array):
        array.add("a", (3, 4))
        assert array.remove("a")
        assert not array.remove("a")
        assert "a" not in array
        assert array.point_of("a") is None

    def test_re_add_moves_item(self, array):
        array.add("a", (1, 1))
        array.add("a", (9, 9))
        assert len(array) == 1
        assert array.point_of("a") == (9, 9)

    def test_duplicate_points_different_ids(self, array):
        array.add("a", (5, 5))
        array.add("b", (5, 5))
        assert len(array) == 2
        array.remove("a")
        assert "b" in array
        assert array.point_of("b") == (5, 5)

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
        array.stats.reset()
        assert array.stats.inserts == 0


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

    def test_items_are_in_key_order(self, array):
        rng = random.Random(3)
        for i in range(50):
            array.add(i, (rng.randint(0, 31), rng.randint(0, 31)))
        keys = [array.curve.key(item.point) for item in array.items()]
        assert keys == sorted(keys)

    def test_count_in_key_range(self, array):
        for i in range(8):
            array.add(i, (i, 0))
        total = array.count_in_key_range((0, array.universe.max_key))
        assert total == 8

    def test_keys_distinct_and_sorted(self, array):
        array.add("a", (1, 1))
        array.add("b", (1, 1))
        array.add("c", (2, 2))
        keys = list(array.keys())
        assert keys == sorted(set(keys))
        assert len(keys) == 2


class TestFirstProbeHit:
    """The whole-schedule probe against its definition: first_in_key_range per
    row in search order, stopping at the first hit."""

    @staticmethod
    def schedule(rng, max_key, rows):
        """``rows`` disjoint key ranges sorted by key, and a shuffled search order."""
        cuts = sorted(rng.sample(range(max_key + 1), 2 * rows))
        los, his = cuts[0::2], cuts[1::2]
        probe_of_row = list(range(rows))
        rng.shuffle(probe_of_row)
        row_of_probe = [0] * rows
        for row, probe in enumerate(probe_of_row):
            row_of_probe[probe] = row
        return los, his, probe_of_row, row_of_probe

    @pytest.mark.parametrize("items", [0, 1, 7, 8, 9, 40])
    def test_matches_the_probe_loop_in_both_join_directions(self, array, items):
        """Eight rows against 0–40 items: fewer items than rows walks the stored
        keys, more walks the rows; the answer and the probe count never differ."""
        rng = random.Random(items)
        max_key = array.universe.max_key
        for i in range(items):
            array.add(i, (rng.randint(0, 31), rng.randint(0, 31)))
        for i in range(0, items, 4):
            array.remove(i)
        for i in range(0, items, 8):
            array.add(i, array.point_of(i + 1) or (5, 5))  # shares a cell
        for _ in range(60):
            los, his, probe_of_row, row_of_probe = self.schedule(rng, max_key, 8)
            before = array.stats.range_probes
            expected = None
            for probe, row in enumerate(row_of_probe):
                item = array.first_in_key_range((los[row], his[row]))
                if item is not None:
                    expected = (probe, item)
                    break
            probes = array.stats.range_probes - before
            assert array.first_probe_hit(los, his, probe_of_row, row_of_probe) == expected
            assert array.stats.range_probes - before == 2 * probes

    def test_empty_schedule_and_empty_array(self, array):
        assert array.first_probe_hit([], [], [], []) is None
        array.add("a", (1, 1))
        assert array.first_probe_hit([], [], [], []) is None
        assert array.stats.range_probes == 0


class TestSFCArrayConsistencyAcrossBackends:
    def test_same_results_for_all_backends(self):
        universe = Universe(dims=2, order=6)
        curve = ZOrderCurve(universe)
        rng = random.Random(11)
        points = [(rng.randint(0, 63), rng.randint(0, 63)) for _ in range(200)]
        ranges = [
            tuple(sorted((rng.randint(0, universe.max_key), rng.randint(0, universe.max_key))))
            for _ in range(50)
        ]
        results = []
        for backend in BACKEND_NAMES:
            array = SFCArray(curve, backend=backend, seed=2)
            for i, p in enumerate(points):
                array.add(i, p)
            for i in range(0, 200, 3):
                array.remove(i)
            answer = []
            for key_range in ranges:
                items = sorted(item.item_id for item in array.items_in_key_range(key_range))
                answer.append(items)
            results.append(answer)
        assert results[0] == results[1] == results[2]
