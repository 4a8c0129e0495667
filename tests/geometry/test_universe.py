"""Unit tests for repro.geometry.universe."""

from __future__ import annotations

import pytest

from repro.geometry.universe import Universe


class TestUniverseBasics:
    def test_sizes(self):
        u = Universe(dims=3, order=4)
        assert u.side == 16
        assert u.max_coordinate == 15
        assert u.num_cells == 16**3
        assert u.max_key == 16**3 - 1
        assert u.top_corner == (15, 15, 15)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Universe(dims=0, order=3)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            Universe(dims=2, order=0)

    def test_equality_and_hash(self):
        assert Universe(2, 3) == Universe(2, 3)
        assert Universe(2, 3) != Universe(2, 4)
        assert hash(Universe(2, 3)) == hash(Universe(2, 3))


class TestPointValidation:
    def test_contains_point(self):
        u = Universe(2, 3)
        assert u.contains_point((0, 7))
        assert not u.contains_point((0, 8))
        assert not u.contains_point((0,))
        assert not u.contains_point((-1, 0))

    def test_validate_point_converts_to_tuple_of_ints(self):
        u = Universe(2, 3)
        assert u.validate_point([3, 4]) == (3, 4)

    def test_validate_point_rejects_wrong_dims(self):
        u = Universe(2, 3)
        with pytest.raises(ValueError):
            u.validate_point((1, 2, 3))

    def test_validate_point_rejects_out_of_range(self):
        u = Universe(2, 3)
        with pytest.raises(ValueError):
            u.validate_point((1, 8))
        with pytest.raises(ValueError):
            u.validate_point((-1, 0))


class TestLengthValidation:
    def test_valid_lengths(self):
        u = Universe(2, 3)
        assert u.validate_lengths((1, 8)) == (1, 8)

    def test_zero_length_rejected(self):
        u = Universe(2, 3)
        with pytest.raises(ValueError):
            u.validate_lengths((0, 4))

    def test_too_long_rejected(self):
        u = Universe(2, 3)
        with pytest.raises(ValueError):
            u.validate_lengths((9, 4))

    def test_wrong_arity_rejected(self):
        u = Universe(2, 3)
        with pytest.raises(ValueError):
            u.validate_lengths((4,))


class TestStandardCubeLevels:
    def test_cube_side_at_level(self):
        u = Universe(2, 3)
        assert u.cube_side_at_level(0) == 8
        assert u.cube_side_at_level(3) == 1
        with pytest.raises(ValueError):
            u.cube_side_at_level(4)

    def test_level_of_cube_side(self):
        u = Universe(2, 3)
        assert u.level_of_cube_side(8) == 0
        assert u.level_of_cube_side(1) == 3
        with pytest.raises(ValueError):
            u.level_of_cube_side(3)
        with pytest.raises(ValueError):
            u.level_of_cube_side(16)

    def test_level_roundtrip(self):
        u = Universe(3, 5)
        for level in range(u.order + 1):
            assert u.level_of_cube_side(u.cube_side_at_level(level)) == level
