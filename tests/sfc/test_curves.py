"""Tests shared by all three space filling curves (Z, Hilbert, Gray).

These exercise the properties the paper relies on:

* the curve is a bijection between cells and keys;
* Fact 2.1 — every standard cube maps to one contiguous, aligned key range;
* `cube_key_range` agrees with brute-force enumeration of the cube's cells.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.rect import StandardCube
from repro.geometry.universe import Universe
from repro.sfc.gray import GrayCodeCurve
from repro.sfc.hilbert import HilbertCurve
from repro.sfc.zorder import ZOrderCurve

ALL_CURVES = [ZOrderCurve, HilbertCurve, GrayCodeCurve]


def all_cells(universe: Universe):
    return itertools.product(range(universe.side), repeat=universe.dims)


@pytest.mark.parametrize("curve_cls", ALL_CURVES)
class TestBijection:
    def test_2d_bijection(self, curve_cls):
        universe = Universe(dims=2, order=3)
        curve = curve_cls(universe)
        keys = {curve.key(cell) for cell in all_cells(universe)}
        assert keys == set(range(universe.num_cells))

    def test_3d_bijection(self, curve_cls):
        universe = Universe(dims=3, order=2)
        curve = curve_cls(universe)
        keys = {curve.key(cell) for cell in all_cells(universe)}
        assert keys == set(range(universe.num_cells))

    def test_roundtrip(self, curve_cls):
        universe = Universe(dims=2, order=4)
        curve = curve_cls(universe)
        for cell in all_cells(universe):
            assert curve.point(curve.key(cell)) == cell

    def test_key_rejects_invalid_point(self, curve_cls):
        curve = curve_cls(Universe(dims=2, order=3))
        with pytest.raises(ValueError):
            curve.key((8, 0))
        with pytest.raises(ValueError):
            curve.key((0,))

    def test_point_rejects_invalid_key(self, curve_cls):
        curve = curve_cls(Universe(dims=2, order=3))
        with pytest.raises(ValueError):
            curve.point(-1)
        with pytest.raises(ValueError):
            curve.point(64)


@pytest.mark.parametrize("curve_cls", ALL_CURVES)
class TestFact21CubeRuns:
    """Fact 2.1: a standard cube is a single aligned run of keys."""

    @pytest.mark.parametrize("dims,order", [(2, 3), (2, 4), (3, 2)])
    def test_every_standard_cube_is_one_aligned_run(self, curve_cls, dims, order):
        universe = Universe(dims=dims, order=order)
        curve = curve_cls(universe)
        for level in range(universe.order + 1):
            side = universe.cube_side_at_level(level)
            volume = side**dims
            for low in itertools.product(range(0, universe.side, side), repeat=dims):
                cube = StandardCube(universe, low, side)
                keys = sorted(
                    curve.key(cell) for cell in cube.as_rectangle().cells()
                )
                assert keys == list(range(keys[0], keys[0] + volume))
                assert keys[0] % volume == 0

    @pytest.mark.parametrize("dims,order", [(2, 3), (3, 2)])
    def test_cube_key_range_matches_brute_force(self, curve_cls, dims, order):
        universe = Universe(dims=dims, order=order)
        curve = curve_cls(universe)
        for level in range(universe.order + 1):
            side = universe.cube_side_at_level(level)
            for low in itertools.product(range(0, universe.side, side), repeat=dims):
                cube = StandardCube(universe, low, side)
                lo, hi = curve.cube_key_range(cube)
                keys = {curve.key(cell) for cell in cube.as_rectangle().cells()}
                assert keys == set(range(lo, hi + 1))

    def test_cube_key_range_rejects_foreign_cube(self, curve_cls):
        curve = curve_cls(Universe(dims=2, order=3))
        foreign = StandardCube(Universe(dims=2, order=4), (0, 0), 2)
        with pytest.raises(ValueError):
            curve.cube_key_range(foreign)

    def test_cube_from_key_prefix_roundtrip(self, curve_cls):
        universe = Universe(dims=2, order=3)
        curve = curve_cls(universe)
        for level in range(universe.order + 1):
            for prefix in range(1 << (universe.dims * level)):
                cube = curve.cube_from_key_prefix(prefix, level)
                lo, hi = curve.cube_key_range(cube)
                assert lo == prefix << (universe.dims * (universe.order - level))
                assert hi - lo + 1 == cube.volume


class TestZOrderSpecifics:
    def test_paper_key_example(self):
        """Section 5: cell (3, 5) = (011, 101) has Z key 27."""
        curve = ZOrderCurve(Universe(dims=2, order=3))
        assert curve.key((3, 5)) == 27

    def test_square_a_cube_key(self):
        """Section 5 / Figure 5(c): square 'a' at grid coords (010, 011) has key 13."""
        universe = Universe(dims=2, order=5)
        curve = ZOrderCurve(universe)
        square_a = StandardCube(universe, (0b010 * 4, 0b011 * 4), 4)
        lo, hi = curve.cube_key_range(square_a)
        # The level-3 key is the top 2·3 bits shared by the cube's 16 cells.
        assert lo >> 4 == 13
        assert hi - lo + 1 == square_a.volume

    def test_cube_key_range_from_coords(self):
        universe = Universe(dims=2, order=3)
        curve = ZOrderCurve(universe)
        lo, hi = curve.cube_key_range(StandardCube(universe, (4, 4), 4))
        # Quadrant (1,1) is the last quarter of the key space.
        assert (lo, hi) == (48, 63)

    def test_cube_of_cell(self):
        universe = Universe(dims=2, order=3)
        curve = ZOrderCurve(universe)
        # The level-1 cube holding a cell is named by the top 2·1 bits of its key.
        cube = curve.cube_from_key_prefix(curve.key((5, 6)) >> 4, level=1)
        assert cube.low == (4, 4)
        assert cube.side == 4

    def test_cube_coords_roundtrip(self):
        universe = Universe(dims=2, order=4)
        curve = ZOrderCurve(universe)
        cube = StandardCube(universe, (2 * 4, 3 * 4), 4)  # level-2 grid coords (2, 3)
        lo, _ = curve.cube_key_range(cube)
        prefix = lo >> (universe.dims * (universe.order - 2))
        assert prefix == 0b1101  # interleaving of (10, 11)
        back = curve.cube_from_key_prefix(prefix, level=2)
        assert back == cube
        assert tuple(x // back.side for x in back.low) == (2, 3)

    def test_cube_key_validates_inputs(self):
        curve = ZOrderCurve(Universe(dims=2, order=3))
        with pytest.raises(ValueError):
            curve.cube_from_key_prefix(16, level=2)  # prefix too large for the level-2 grid
        with pytest.raises(ValueError):
            curve.cube_from_key_prefix(0, level=7)
        with pytest.raises(ValueError):
            curve.cube_from_key_prefix(-1, level=1)

    @given(st.integers(min_value=2, max_value=4), st.data())
    @settings(max_examples=25, deadline=None)
    def test_z_key_is_interleaving(self, order, data):
        universe = Universe(dims=2, order=order)
        curve = ZOrderCurve(universe)
        x = data.draw(st.integers(min_value=0, max_value=universe.max_coordinate))
        y = data.draw(st.integers(min_value=0, max_value=universe.max_coordinate))
        key = curve.key((x, y))
        # Reconstruct by explicit bit interleaving.
        expected = 0
        for level in range(order - 1, -1, -1):
            expected = (expected << 1) | ((x >> level) & 1)
            expected = (expected << 1) | ((y >> level) & 1)
        assert key == expected


class TestHilbertSpecifics:
    def test_unit_step_adjacency_2d(self):
        """Consecutive Hilbert keys are adjacent cells (the curve is continuous)."""
        curve = HilbertCurve(Universe(dims=2, order=4))
        previous = curve.point(0)
        for key in range(1, curve.universe.num_cells):
            current = curve.point(key)
            distance = sum(abs(a - b) for a, b in zip(previous, current))
            assert distance == 1
            previous = current

    def test_unit_step_adjacency_3d(self):
        curve = HilbertCurve(Universe(dims=3, order=2))
        previous = curve.point(0)
        for key in range(1, curve.universe.num_cells):
            current = curve.point(key)
            assert sum(abs(a - b) for a, b in zip(previous, current)) == 1
            previous = current

    def test_canonical_2x2_order(self):
        """The order-1 Hilbert curve visits the four quadrant cells in a U shape."""
        curve = HilbertCurve(Universe(dims=2, order=1))
        walk = [curve.point(k) for k in range(4)]
        assert len(set(walk)) == 4
        assert walk[0] == (0, 0)


class TestGraySpecifics:
    def test_single_interleaved_bit_flip(self):
        """Consecutive Gray-curve keys differ in exactly one interleaved coordinate bit."""
        from repro.geometry.bits import interleave_bits

        curve = GrayCodeCurve(Universe(dims=2, order=3))
        previous = interleave_bits(curve.point(0), 3)
        for key in range(1, curve.universe.num_cells):
            current = interleave_bits(curve.point(key), 3)
            diff = previous ^ current
            assert diff != 0 and (diff & (diff - 1)) == 0
            previous = current


class TestWalkAndBruteForce:
    def test_walk_covers_universe(self, any_curve_2d):
        cells = list(any_curve_2d.walk())
        assert len(cells) == any_curve_2d.universe.num_cells
        assert len(set(cells)) == len(cells)

    def test_brute_force_runs_single_cell(self, any_curve_2d):
        from repro.geometry.rect import Rectangle

        assert any_curve_2d.brute_force_runs(Rectangle((3, 3), (3, 3))) == 1

    def test_brute_force_runs_whole_universe(self, any_curve_2d):
        from repro.geometry.rect import Rectangle

        u = any_curve_2d.universe
        whole = Rectangle((0,) * u.dims, (u.max_coordinate,) * u.dims)
        assert any_curve_2d.brute_force_runs(whole) == 1
