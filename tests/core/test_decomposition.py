"""Tests for the greedy standard-cube decomposition (Lemmas 3.2–3.5 machinery)."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rect_oracle import contains, intersect
from repro.core.decomposition import (
    count_cubes_extremal,
    cubes_in_class,
    cumulative_volume_at_level,
    decompose_rectangle,
    greedy_decomposition,
    level_census,
    truncation_bits,
    zorder_class_keys,
)
from repro.geometry.bits import bit_at, bit_length
from repro.geometry.rect import ExtremalRectangle, Rectangle, StandardCube
from repro.geometry.universe import Universe
from repro.sfc.zorder import ZOrderCurve


def random_lengths(rng, universe):
    return tuple(rng.randint(1, universe.side) for _ in range(universe.dims))


def reference_decompose_rectangle(universe, rect):
    """The previous ``decompose_rectangle`` body, kept as the test oracle.

    One ``Rectangle`` per visited quadtree node, every child visited; the
    production kernel must return the same cubes in the same order.
    """
    result = []

    def recurse(low, side):
        cube = Rectangle(low, tuple(x + side - 1 for x in low))
        if not intersect(rect, cube):
            return
        if contains(rect, cube):
            result.append(StandardCube(universe, low, side))
            return
        half = side // 2
        for offsets in itertools.product((0, half), repeat=universe.dims):
            recurse(tuple(x + o for x, o in zip(low, offsets)), half)

    recurse((0,) * universe.dims, universe.side)
    result.sort(key=lambda c: (-c.side, c.low))
    return result


class TestTruncationBits:
    def test_paper_value(self):
        # m = ceil(log2(2d/ε)) for d=4, ε=0.05 → ceil(log2(160)) = 8
        assert truncation_bits(4, 0.05) == 8

    def test_small_dims(self):
        assert truncation_bits(1, 0.5) == 2
        assert truncation_bits(2, 0.5) == 3

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            truncation_bits(0, 0.1)
        with pytest.raises(ValueError):
            truncation_bits(2, 0.0)
        with pytest.raises(ValueError):
            truncation_bits(2, 1.0)

    @given(st.integers(1, 8), st.floats(0.001, 0.999))
    def test_lemma32_guarantee_holds(self, dims, epsilon):
        """Choosing m = truncation_bits guarantees coverage ≥ 1 − ε (Lemma 3.2)."""
        m = truncation_bits(dims, epsilon)
        assert 2 * dims / (2**m) <= epsilon + 1e-12


class TestLevelCensus:
    def test_single_cube_region(self):
        universe = Universe(dims=2, order=9)
        region = ExtremalRectangle(universe, (256, 256))
        census = level_census(region)
        assert len(census) == 1
        assert census[0].num_cubes == 1
        assert census[0].cube_side == 256
        assert census[0].cumulative_volume == 256 * 256

    def test_fig2_census(self):
        """The 257×257 region: one 256-cube plus 513 unit cells (total 514 cubes)."""
        universe = Universe(dims=2, order=9)
        region = ExtremalRectangle(universe, (257, 257))
        census = level_census(region)
        assert [c.cube_side for c in census] == [256, 1]
        assert census[0].num_cubes == 1
        assert census[1].num_cubes == 513
        assert census[1].cumulative_volume == 257 * 257

    def test_census_is_descending_in_cube_side(self):
        universe = Universe(dims=3, order=6)
        region = ExtremalRectangle(universe, (37, 22, 64))
        census_list = level_census(region)
        sides = [c.cube_side for c in census_list]
        assert sides == sorted(sides, reverse=True)
        assert all(c.num_cubes > 0 for c in census_list)

    def test_lemma34_nonempty_iff_bit_set(self):
        """D_i is non-empty exactly when some side length has bit i set (below b(ℓ_min))."""
        universe = Universe(dims=2, order=8)
        lengths = (0b10110, 0b11001)
        region = ExtremalRectangle(universe, lengths)
        census = {c.bit_index: c for c in level_census(region)}
        min_bits = min(bit_length(v) for v in lengths)
        for i in range(min_bits):
            expected_nonempty = any(bit_at(v, i) for v in lengths)
            assert (i in census) == expected_nonempty

    def test_volumes_sum_to_region_volume(self):
        universe = Universe(dims=3, order=5)
        rng = random.Random(1)
        for _ in range(20):
            region = ExtremalRectangle(universe, random_lengths(rng, universe))
            census = level_census(region)
            total = sum(c.num_cubes * c.cube_volume for c in census)
            assert total == region.volume

    def test_cumulative_volume_matches_suffix_product(self):
        universe = Universe(dims=2, order=7)
        lengths = (100, 87)
        region = ExtremalRectangle(universe, lengths)
        for cls in level_census(region):
            assert cls.cumulative_volume == cumulative_volume_at_level(lengths, cls.bit_index)


class TestCubesInClass:
    def test_counts_match_census(self):
        universe = Universe(dims=3, order=5)
        rng = random.Random(7)
        for _ in range(15):
            region = ExtremalRectangle(universe, random_lengths(rng, universe))
            for cls in level_census(region):
                enumerated = list(cubes_in_class(region, cls.bit_index))
                assert len(enumerated) == cls.num_cubes
                assert all(cube.side == cls.cube_side for cube in enumerated)

    def test_cubes_are_disjoint_and_inside_region(self):
        universe = Universe(dims=2, order=6)
        region = ExtremalRectangle(universe, (45, 29))
        rect = region.as_rectangle()
        all_cubes = []
        for cls in level_census(region):
            all_cubes.extend(cubes_in_class(region, cls.bit_index))
        for cube in all_cubes:
            assert contains(rect, cube.as_rectangle())
        for a, b in itertools.combinations(all_cubes, 2):
            assert not intersect(a.as_rectangle(), b.as_rectangle())

    @pytest.mark.parametrize("dims, order", [(2, 6), (3, 4), (4, 3), (6, 2)])
    def test_zorder_fast_path_matches_generic(self, dims, order):
        """Same cubes in the same grid order, for the whole class and every prefix length
        around a batch boundary."""
        universe = Universe(dims=dims, order=order)
        curve = ZOrderCurve(universe)
        rng = random.Random(13)
        for _ in range(20):
            region = ExtremalRectangle(universe, random_lengths(rng, universe))
            for cls in level_census(region):
                generic = [
                    curve.cube_key_range(c) for c in cubes_in_class(region, cls.bit_index)
                ]
                span = cls.cube_volume
                for count in {1, 63, 64, 65, cls.num_cubes // 2, cls.num_cubes}:
                    count = min(count, cls.num_cubes)
                    fast = zorder_class_keys(region, cls.bit_index, count)
                    assert [(lo, lo + span - 1) for lo in fast] == generic[:count]


class TestGreedyDecomposition:
    def test_matches_quadtree_decomposition_size(self):
        """Greedy (Lemma 3.3) and maximal-cube decompositions are both minimum."""
        rng = random.Random(3)
        for _ in range(25):
            dims = rng.choice([2, 3])
            order = rng.choice([3, 4])
            universe = Universe(dims, order)
            region = ExtremalRectangle(universe, random_lengths(rng, universe))
            greedy = greedy_decomposition(region)
            quadtree = decompose_rectangle(universe, region.as_rectangle())
            assert len(greedy) == len(quadtree) == count_cubes_extremal(region)
            assert sum(c.volume for c in greedy) == region.volume

    def test_exact_partition_covers_every_cell(self):
        universe = Universe(dims=2, order=4)
        region = ExtremalRectangle(universe, (5, 11))
        cubes = greedy_decomposition(region)
        covered = set()
        for cube in cubes:
            for cell in cube.as_rectangle().cells():
                assert cell not in covered
                covered.add(cell)
        assert covered == set(region.as_rectangle().cells())

    def test_largest_first_ordering(self):
        universe = Universe(dims=2, order=6)
        region = ExtremalRectangle(universe, (33, 47))
        sides = [c.side for c in greedy_decomposition(region)]
        assert sides == sorted(sides, reverse=True)


class TestDecomposeRectangle:
    def test_whole_universe_is_one_cube(self):
        universe = Universe(dims=2, order=4)
        whole = Rectangle((0, 0), (15, 15))
        cubes = decompose_rectangle(universe, whole)
        assert len(cubes) == 1
        assert cubes[0].side == 16

    def test_single_cell(self):
        universe = Universe(dims=2, order=4)
        cubes = decompose_rectangle(universe, Rectangle((3, 9), (3, 9)))
        assert len(cubes) == 1
        assert cubes[0].side == 1

    def test_partition_is_exact(self):
        universe = Universe(dims=2, order=4)
        rng = random.Random(5)
        for _ in range(20):
            x0, y0 = rng.randint(0, 15), rng.randint(0, 15)
            x1, y1 = rng.randint(x0, 15), rng.randint(y0, 15)
            rect = Rectangle((x0, y0), (x1, y1))
            cubes = decompose_rectangle(universe, rect)
            assert sum(c.volume for c in cubes) == rect.volume
            cells = set()
            for cube in cubes:
                cells.update(cube.as_rectangle().cells())
            assert cells == set(rect.cells())

    def test_maximality_no_mergeable_siblings(self):
        """No four sibling cubes of the output can be merged into their parent."""
        universe = Universe(dims=2, order=5)
        rect = Rectangle((1, 1), (22, 17))
        cubes = decompose_rectangle(universe, rect)
        by_parent = {}
        for cube in cubes:
            parent_side = cube.side * 2
            parent_low = tuple((x // parent_side) * parent_side for x in cube.low)
            by_parent.setdefault((parent_low, parent_side), []).append(cube)
        for (parent_low, parent_side), children in by_parent.items():
            if parent_side > universe.side:
                continue
            assert len(children) < 4

    def test_dimension_mismatch_rejected(self):
        universe = Universe(dims=3, order=3)
        with pytest.raises(ValueError):
            decompose_rectangle(universe, Rectangle((0, 0), (1, 1)))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_property_extremal_equals_general(self, data):
        """For extremal rectangles the two decomposition routes agree exactly."""
        dims = data.draw(st.integers(2, 3))
        order = data.draw(st.integers(2, 4))
        universe = Universe(dims, order)
        lengths = tuple(
            data.draw(st.integers(1, universe.side)) for _ in range(dims)
        )
        region = ExtremalRectangle(universe, lengths)
        greedy = {(c.low, c.side) for c in greedy_decomposition(region)}
        quadtree = {(c.low, c.side) for c in decompose_rectangle(universe, region.as_rectangle())}
        assert greedy == quadtree

    @settings(deadline=None)
    @given(data=st.data())
    def test_property_same_cubes_in_same_order_as_reference(self, data):
        """The interval kernel ≡ the node-per-Rectangle recursion it replaced."""
        dims = data.draw(st.integers(2, 4))
        order = data.draw(st.integers(1, 4 if dims < 4 else 3))
        universe = Universe(dims, order)
        low = tuple(
            data.draw(st.integers(0, universe.max_coordinate)) for _ in range(dims)
        )
        high = tuple(
            data.draw(st.integers(lo, universe.max_coordinate)) for lo in low
        )
        rect = Rectangle(low, high)
        assert decompose_rectangle(universe, rect) == reference_decompose_rectangle(
            universe, rect
        )

    def test_out_of_universe_corner_rejected(self):
        universe = Universe(dims=2, order=3)
        with pytest.raises(ValueError):
            decompose_rectangle(universe, Rectangle((0, 0), (7, 8)))
