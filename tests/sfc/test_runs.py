"""Tests for run merging and run profiles (repro.sfc.runs)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.decomposition import decompose_rectangle
from repro.geometry.rect import Rectangle
from repro.geometry.universe import Universe
from repro.sfc.gray import GrayCodeCurve
from repro.sfc.hilbert import HilbertCurve
from repro.sfc.runs import (
    GridRunTable,
    RunProfile,
    brute_force_run_profile,
    count_runs,
    cube_key_ranges,
    merge_key_ranges,
)
from repro.sfc.zorder import ZOrderCurve


class TestMergeKeyRanges:
    def test_empty(self):
        assert merge_key_ranges([]) == []

    def test_disjoint(self):
        assert merge_key_ranges([(0, 3), (10, 12)]) == [(0, 3), (10, 12)]

    def test_adjacent_merge(self):
        assert merge_key_ranges([(4, 7), (0, 3), (10, 12)]) == [(0, 7), (10, 12)]

    def test_overlapping_merge(self):
        assert merge_key_ranges([(0, 5), (3, 9)]) == [(0, 9)]

    def test_nested_merge(self):
        assert merge_key_ranges([(0, 9), (3, 5)]) == [(0, 9)]

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            merge_key_ranges([(5, 3)])

    @given(
        st.lists(
            st.tuples(st.integers(0, 200), st.integers(0, 50)).map(lambda t: (t[0], t[0] + t[1])),
            min_size=0,
            max_size=30,
        )
    )
    def test_merge_preserves_key_set(self, ranges):
        merged = merge_key_ranges(ranges)
        original_keys = set()
        for lo, hi in ranges:
            original_keys.update(range(lo, hi + 1))
        merged_keys = set()
        for lo, hi in merged:
            merged_keys.update(range(lo, hi + 1))
        assert merged_keys == original_keys
        # Merged ranges are disjoint, non-adjacent and sorted.
        for (lo1, hi1), (lo2, hi2) in zip(merged, merged[1:]):
            assert hi1 + 1 < lo2


class TestRunCounting:
    @pytest.mark.parametrize("curve_cls", [ZOrderCurve, HilbertCurve, GrayCodeCurve])
    def test_runs_match_brute_force_on_random_rectangles(self, curve_cls):
        universe = Universe(dims=2, order=4)
        curve = curve_cls(universe)
        rng = random.Random(42)
        for _ in range(25):
            x0, y0 = rng.randint(0, 15), rng.randint(0, 15)
            x1, y1 = rng.randint(x0, 15), rng.randint(y0, 15)
            rect = Rectangle((x0, y0), (x1, y1))
            cubes = decompose_rectangle(universe, rect)
            assert count_runs(curve, cubes) == curve.brute_force_runs(rect)

    def test_single_cube_is_one_run(self):
        universe = Universe(dims=2, order=4)
        curve = ZOrderCurve(universe)
        rect = Rectangle((4, 4), (7, 7))  # an aligned 4×4 standard cube
        cubes = decompose_rectangle(universe, rect)
        assert len(cubes) == 1
        assert count_runs(curve, cubes) == 1

    def test_cube_key_ranges_length(self):
        universe = Universe(dims=2, order=3)
        curve = ZOrderCurve(universe)
        rect = Rectangle((0, 0), (2, 2))
        cubes = decompose_rectangle(universe, rect)
        assert len(cube_key_ranges(curve, cubes)) == len(cubes)


class TestRunProfile:
    def test_profile_of_fig2_example(self):
        """Figure 2(b): the 257×257 region has 385 runs, the largest covering >99%."""
        from repro.core.decomposition import greedy_decomposition
        from repro.geometry.rect import ExtremalRectangle

        universe = Universe(dims=2, order=9)
        curve = ZOrderCurve(universe)
        region = ExtremalRectangle(universe, (257, 257))
        profile = RunProfile.from_cubes(curve, greedy_decomposition(region))
        assert profile.num_runs == 385
        assert profile.largest_run_fraction > 0.99
        assert profile.total_volume == 257 * 257
        assert sum(profile.run_volumes) == profile.total_volume

    def test_profile_matches_brute_force(self):
        universe = Universe(dims=2, order=4)
        curve = HilbertCurve(universe)
        rect = Rectangle((1, 2), (9, 11))
        cubes = decompose_rectangle(universe, rect)
        profile = RunProfile.from_cubes(curve, cubes)
        brute = brute_force_run_profile(curve, rect)
        assert profile.num_runs == brute.num_runs
        assert profile.run_volumes == brute.run_volumes
        assert profile.largest_run_volume == brute.largest_run_volume

    def test_empty_profile(self):
        universe = Universe(dims=2, order=3)
        curve = ZOrderCurve(universe)
        profile = RunProfile.from_cubes(curve, [])
        assert profile.num_runs == 0
        assert profile.largest_run_fraction == 0.0

    def test_brute_force_profile_empty_like(self):
        universe = Universe(dims=2, order=3)
        curve = ZOrderCurve(universe)
        profile = brute_force_run_profile(curve, Rectangle((0, 0), (0, 0)))
        assert profile.num_runs == 1
        assert profile.total_volume == 1


class TestLemma31:
    """Lemma 3.1: runs(T) ≤ cubes(T) for any region and any recursive SFC."""

    @pytest.mark.parametrize("curve_cls", [ZOrderCurve, HilbertCurve, GrayCodeCurve])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_runs_at_most_cubes(self, curve_cls, data):
        universe = Universe(dims=2, order=4)
        curve = curve_cls(universe)
        x0 = data.draw(st.integers(0, 15))
        y0 = data.draw(st.integers(0, 15))
        x1 = data.draw(st.integers(x0, 15))
        y1 = data.draw(st.integers(y0, 15))
        rect = Rectangle((x0, y0), (x1, y1))
        cubes = decompose_rectangle(universe, rect)
        assert count_runs(curve, cubes) <= len(cubes)


class TestGridRunTable:
    """The table's runs are those of the decomposed rectangle, curve by curve."""

    @pytest.mark.parametrize("curve_cls", [ZOrderCurve, HilbertCurve, GrayCodeCurve])
    @pytest.mark.parametrize("dims, order, bits", [(1, 5, 5), (2, 6, 4), (3, 10, 4), (4, 5, 3), (2, 3, 0)])
    def test_runs_equal_merged_cube_ranges(self, curve_cls, dims, order, bits):
        universe = Universe(dims=dims, order=order)
        curve = curve_cls(universe)
        table = GridRunTable(curve, bits)
        rng = random.Random(dims * 100 + order)
        cube_side = 1 << (order - bits)
        top = (1 << bits) - 1
        samples = [tuple((0, top) for _ in range(dims)), tuple((top, top) for _ in range(dims))]
        for _ in range(40):
            lows = [rng.randint(0, top) for _ in range(dims)]
            samples.append(tuple((lo, rng.randint(lo, top)) for lo in lows))
        for grid_ranges in samples:
            rect = Rectangle(
                tuple(lo * cube_side for lo, _ in grid_ranges),
                tuple((hi + 1) * cube_side - 1 for _, hi in grid_ranges),
            )
            expected = merge_key_ranges(curve.cube_key_ranges(decompose_rectangle(universe, rect)))
            assert table.runs(grid_ranges) == expected

    def test_whole_universe_is_one_run(self):
        universe = Universe(dims=3, order=4)
        table = GridRunTable(HilbertCurve(universe), 2)
        assert table.runs(((0, 3), (0, 3), (0, 3))) == [(0, universe.max_key)]

    def test_rejects_bits_beyond_the_order(self):
        with pytest.raises(ValueError):
            GridRunTable(ZOrderCurve(Universe(dims=2, order=3)), 4)
