"""Tests for the faithful Appendix A transliteration (EnumRectangles / CompKeys).

The key check: the pseudocode enumeration and the production enumeration in
``repro.core.decomposition`` emit exactly the same Z-curve cube keys for every
class ``D_i`` of the greedy decomposition.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from appendix_a import enumerate_all_cube_keys, enumerate_cube_keys
from repro.core.decomposition import cubes_in_class, level_census
from repro.geometry.rect import ExtremalRectangle
from repro.geometry.universe import Universe
from repro.sfc.zorder import ZOrderCurve


def cube_prefixes_via_decomposition(curve, region, bit_index):
    """Cube key prefixes from the production enumeration (shift away the low bits)."""
    dims = region.dims
    order = region.universe.order
    low_bits = dims * bit_index
    prefixes = set()
    for cube in cubes_in_class(region, bit_index):
        lo, _ = curve.cube_key_range(cube)
        prefixes.add(lo >> low_bits)
    return prefixes


class TestAppendixAEquivalence:
    def test_paper_style_2d_example(self):
        universe = Universe(dims=2, order=3)
        curve = ZOrderCurve(universe)
        region = ExtremalRectangle(universe, (6, 5))  # ℓ1=110, ℓ2=101 as in Figure 5
        for cls in level_census(region):
            expected = cube_prefixes_via_decomposition(curve, region, cls.bit_index)
            got = enumerate_cube_keys(region, cls.bit_index)
            assert got == expected

    def test_random_2d_and_3d_regions(self):
        rng = random.Random(99)
        for _ in range(30):
            dims = rng.choice([2, 3])
            order = rng.choice([3, 4, 5])
            universe = Universe(dims, order)
            curve = ZOrderCurve(universe)
            lengths = tuple(rng.randint(1, universe.side) for _ in range(dims))
            region = ExtremalRectangle(universe, lengths)
            for cls in level_census(region):
                expected = cube_prefixes_via_decomposition(curve, region, cls.bit_index)
                got = enumerate_cube_keys(region, cls.bit_index)
                assert got == expected, (lengths, cls.bit_index)

    def test_enumerate_all_matches_census(self):
        universe = Universe(dims=2, order=5)
        region = ExtremalRectangle(universe, (21, 14))
        per_class = enumerate_all_cube_keys(region)
        census = level_census(region)
        assert len(per_class) == len(census)
        for keys, cls in zip(per_class, census):
            assert len(keys) == cls.num_cubes

    def test_total_volume_reconstructed_from_keys(self):
        """Every key set reconstructs to disjoint cubes whose volumes sum to the region."""
        universe = Universe(dims=2, order=4)
        curve = ZOrderCurve(universe)
        region = ExtremalRectangle(universe, (11, 13))
        census = level_census(region)
        total = 0
        seen_cells = set()
        for keys, cls in zip(enumerate_all_cube_keys(region), census):
            level = universe.order - cls.bit_index
            for prefix in keys:
                cube = curve.cube_from_key_prefix(prefix, level)
                assert cube.side == cls.cube_side
                for cell in cube.as_rectangle().cells():
                    assert cell not in seen_cells
                    seen_cells.add(cell)
                total += cube.volume
        assert total == region.volume
        assert seen_cells == set(region.as_rectangle().cells())

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_property_equivalence(self, data):
        dims = data.draw(st.integers(2, 3))
        order = data.draw(st.integers(2, 4))
        universe = Universe(dims, order)
        curve = ZOrderCurve(universe)
        lengths = tuple(data.draw(st.integers(1, universe.side)) for _ in range(dims))
        region = ExtremalRectangle(universe, lengths)
        for cls in level_census(region):
            expected = cube_prefixes_via_decomposition(curve, region, cls.bit_index)
            got = enumerate_cube_keys(region, cls.bit_index)
            assert got == expected
