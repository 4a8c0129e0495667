"""Unit tests for repro.geometry.universe."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.universe import Universe, pack_box, pack_point, packed_guard, unpack_box


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


class TestPacking:
    """The packed forms the rectangle tests compare (fields of ``order + 1`` bits)."""

    def test_guard_sets_the_top_bit_of_every_field(self):
        assert packed_guard(1, 4) == 0b10000
        assert packed_guard(3, 4) == 0b10000_10000_10000

    def test_point_fields_first_coordinate_highest(self):
        assert pack_point((1, 2, 3), 4) == 1 << 10 | 2 << 5 | 3
        assert pack_point((), 4) == 0

    def test_box_carries_the_guard_on_its_high_side(self):
        lows, highs = pack_box(((1, 2), (0, 15)), 4)
        assert lows == 1 << 5
        assert highs == (2 | 16) << 5 | (15 | 16)

    @pytest.mark.parametrize("value", [-1, 16, 1 << 20])
    def test_point_outside_the_domain_raises(self, value):
        with pytest.raises(ValueError):
            pack_point((0, value), 4)

    @pytest.mark.parametrize("bounds", [(-1, 3), (0, 16), (16, 16), (-2, -1)])
    def test_box_outside_the_domain_raises(self, bounds):
        with pytest.raises(ValueError):
            pack_box(((0, 15), bounds), 4)

    def test_top_cell_does_not_spill_into_the_next_field(self):
        top = (1 << 20) - 1
        assert pack_point((0, top), 20) == top
        assert unpack_box(pack_box(((top, top), (0, 0)), 20), 2, 20) == ((top, top), (0, 0))

    @given(
        st.integers(1, 20).flatmap(
            lambda order: st.tuples(
                st.just(order),
                st.lists(
                    st.tuples(st.integers(0, (1 << order) - 1), st.integers(0, (1 << order) - 1)),
                    min_size=1,
                    max_size=8,
                ),
            )
        )
    )
    def test_unpack_box_inverts_pack_box(self, case):
        order, ranges = case
        ranges = tuple((min(a, b), max(a, b)) for a, b in ranges)
        assert unpack_box(pack_box(ranges, order), len(ranges), order) == ranges
