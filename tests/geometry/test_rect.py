"""Unit and property tests for rectangles, extremal rectangles and standard cubes."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from rect_oracle import contains, intersect
from repro.geometry.rect import ExtremalRectangle, Rectangle, StandardCube, aspect_ratio
from repro.geometry.universe import Universe


class TestAspectRatio:
    def test_equal_sides(self):
        assert aspect_ratio((8, 8, 8)) == 0

    def test_same_bit_length(self):
        # 5 and 7 both have 3 bits, so the paper's aspect ratio is 0.
        assert aspect_ratio((5, 7)) == 0

    def test_extreme(self):
        assert aspect_ratio((1, 256)) == 8

    def test_rejects_zero_side(self):
        with pytest.raises(ValueError):
            aspect_ratio((0, 4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            aspect_ratio(())


class TestRectangle:
    def test_basic_properties(self):
        r = Rectangle((1, 2), (4, 3))
        assert r.dims == 2
        assert r.side_lengths == (4, 2)
        assert r.volume == 8
        assert r.bounds() == ((1, 4), (2, 3))

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Rectangle((5, 0), (4, 3))

    def test_mismatched_dims(self):
        with pytest.raises(ValueError):
            Rectangle((0, 0), (1,))

    def test_contains_point(self):
        r = Rectangle((1, 1), (3, 3))
        assert r.contains_point((1, 3))
        assert r.contains_point((2, 2))
        assert not r.contains_point((0, 2))
        assert not r.contains_point((2, 4))
        assert not r.contains_point((2,))

    def test_cells_enumeration(self):
        r = Rectangle((0, 1), (1, 2))
        assert sorted(r.cells()) == [(0, 1), (0, 2), (1, 1), (1, 2)]
        assert len(list(r.cells())) == r.volume

    def test_aspect_ratio_property(self):
        assert Rectangle((0, 0), (0, 255)).aspect_ratio == 8


class TestExtremalRectangle:
    def test_corners(self):
        u = Universe(2, 4)
        r = ExtremalRectangle(u, (3, 16))
        assert r.low == (13, 0)
        assert r.high == (15, 15)
        assert r.volume == 48

    def test_from_query_point(self):
        u = Universe(2, 4)
        r = ExtremalRectangle.from_query_point(u, (10, 0))
        assert r.lengths == (6, 16)
        assert r.low == (10, 0)

    def test_from_query_point_at_corner(self):
        u = Universe(2, 3)
        r = ExtremalRectangle.from_query_point(u, (7, 7))
        assert r.lengths == (1, 1)
        assert r.volume == 1

    def test_invalid_lengths(self):
        u = Universe(2, 4)
        with pytest.raises(ValueError):
            ExtremalRectangle(u, (0, 4))
        with pytest.raises(ValueError):
            ExtremalRectangle(u, (17, 4))

    def test_contains_point(self):
        u = Universe(2, 4)
        r = ExtremalRectangle(u, (4, 2))
        assert r.contains_point((12, 14))
        assert not r.contains_point((11, 14))
        assert not r.contains_point((12, 13))

    def test_as_rectangle_volume_matches(self):
        u = Universe(3, 3)
        r = ExtremalRectangle(u, (3, 5, 8))
        assert r.as_rectangle().volume == r.volume == 3 * 5 * 8

    def test_truncated_is_nested(self):
        u = Universe(2, 8)
        r = ExtremalRectangle(u, (201, 147))
        t = r.truncated(3)
        assert t.volume <= r.volume
        assert contains(r.as_rectangle(), t.as_rectangle())

    def test_suffix_none_when_empty(self):
        u = Universe(2, 4)
        r = ExtremalRectangle(u, (1, 9))
        assert r.suffix(1) is None  # S_1(1) = 0 → empty
        s = r.suffix(0)
        assert s is not None and s.lengths == (1, 9)

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=2, max_value=8),
        st.data(),
    )
    def test_query_point_roundtrip(self, dims, order, data):
        u = Universe(dims, order)
        point = tuple(
            data.draw(st.integers(min_value=0, max_value=u.max_coordinate)) for _ in range(dims)
        )
        r = ExtremalRectangle.from_query_point(u, point)
        assert r.low == point
        assert r.contains_point(point)
        assert r.contains_point(u.top_corner)


class TestStandardCube:
    def test_valid_cube(self):
        u = Universe(2, 4)
        c = StandardCube(u, (4, 8), 4)
        assert c.level == 2
        assert c.high == (7, 11)
        assert c.volume == 16

    def test_alignment_enforced(self):
        u = Universe(2, 4)
        with pytest.raises(ValueError):
            StandardCube(u, (2, 0), 4)

    def test_side_must_be_power_of_two(self):
        u = Universe(2, 4)
        with pytest.raises(ValueError):
            StandardCube(u, (0, 0), 3)

    def test_side_cannot_exceed_universe(self):
        u = Universe(2, 3)
        with pytest.raises(ValueError):
            StandardCube(u, (0, 0), 16)

    def test_whole_universe_cube(self):
        u = Universe(2, 3)
        c = StandardCube(u, (0, 0), 8)
        assert c.level == 0
        assert c.volume == u.num_cells

    def test_contains_point_and_cube(self):
        u = Universe(2, 4)
        parent = StandardCube(u, (0, 0), 8)
        child = StandardCube(u, (4, 4), 4)
        assert contains(parent.as_rectangle(), child.as_rectangle())
        assert not contains(child.as_rectangle(), parent.as_rectangle())
        assert parent.contains_point((7, 7))
        assert not parent.contains_point((8, 0))

    def test_lemma21_nested_or_disjoint(self):
        """Lemma 2.1: two standard cubes are nested or disjoint, never partially overlapping."""
        u = Universe(2, 3)
        cubes = []
        for level in range(u.order + 1):
            side = u.cube_side_at_level(level)
            for x in range(0, u.side, side):
                for y in range(0, u.side, side):
                    cubes.append(StandardCube(u, (x, y), side))
        for a in cubes[:40]:
            for b in cubes[:40]:
                if a == b:
                    continue
                ra, rb = a.as_rectangle(), b.as_rectangle()
                assert contains(ra, rb) or contains(rb, ra) or not intersect(ra, rb)
