"""Tests for the Edelsbrunner–Overmars transform (covering ⇄ dominance)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.geometry.transform import DominanceTransform, dominates, first_covering, ranges_cover
from repro.geometry.universe import pack_box, packed_guard


class TestDominates:
    def test_basic(self):
        assert dominates((3, 5), (2, 5))
        assert not dominates((3, 5), (4, 1))
        assert dominates((1, 1), (1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1, 2), (1, 2, 3))


class TestRangesCover:
    def test_paper_motivating_example(self):
        # Subscription [volume > 500, current < 95] covers [volume > 700, current < 90]
        # on a quantised grid: wider ranges cover narrower ones.
        wide = [(500, 1000), (0, 95)]
        narrow = [(700, 1000), (0, 90)]
        assert ranges_cover(wide, narrow)
        assert not ranges_cover(narrow, wide)

    def test_equal_ranges_cover_each_other(self):
        r = [(3, 9), (2, 4)]
        assert ranges_cover(r, r)

    def test_partial_overlap_is_not_covering(self):
        assert not ranges_cover([(0, 5)], [(3, 8)])

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            ranges_cover([(0, 5)], [(0, 5), (1, 2)])


def subscription_strategy(attributes: int, max_value: int):
    """Hypothesis strategy producing a tuple of valid (lo, hi) ranges."""
    def build(draws):
        ranges = []
        for lo, width in draws:
            hi = min(max_value, lo + width)
            ranges.append((lo, hi))
        return tuple(ranges)

    pair = st.tuples(
        st.integers(min_value=0, max_value=max_value),
        st.integers(min_value=0, max_value=max_value),
    )
    return st.lists(pair, min_size=attributes, max_size=attributes).map(build)


class TestDominanceTransform:
    def test_universe_shape(self):
        t = DominanceTransform(attributes=3, attribute_order=5)
        assert t.universe.dims == 6
        assert t.universe.order == 5
        assert t.max_value == 31

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DominanceTransform(attributes=0, attribute_order=4)
        with pytest.raises(ValueError):
            DominanceTransform(attributes=2, attribute_order=0)

    def test_to_point_layout(self):
        t = DominanceTransform(attributes=2, attribute_order=4)
        point = t.to_point([(3, 10), (0, 15)])
        # (M − lo, hi) per attribute with M = 15.
        assert point == (12, 10, 15, 15)

    def test_roundtrip(self):
        t = DominanceTransform(attributes=2, attribute_order=6)
        ranges = ((5, 40), (0, 63))
        assert t.from_point(t.to_point(ranges)) == ranges

    def test_from_point_rejects_invalid_subscription(self):
        t = DominanceTransform(attributes=1, attribute_order=4)
        # Point encoding lo=12, hi=2 → empty range.
        with pytest.raises(ValueError):
            t.from_point((3, 2))

    def test_validate_ranges_errors(self):
        t = DominanceTransform(attributes=2, attribute_order=4)
        with pytest.raises(ValueError):
            t.validate_ranges([(0, 3)])
        with pytest.raises(ValueError):
            t.validate_ranges([(5, 3), (0, 1)])
        with pytest.raises(ValueError):
            t.validate_ranges([(0, 16), (0, 1)])
        with pytest.raises(ValueError):
            t.validate_ranges([(-1, 3), (0, 1)])

    @given(subscription_strategy(2, 63), subscription_strategy(2, 63))
    def test_covering_iff_dominance(self, outer, inner):
        """The central equivalence: s1 covers s2 ⇔ p(s1) dominates p(s2)."""
        t = DominanceTransform(attributes=2, attribute_order=6)
        covering = ranges_cover(outer, inner)
        dominance = dominates(t.to_point(outer), t.to_point(inner))
        assert covering == dominance

    @given(subscription_strategy(3, 31))
    def test_point_always_valid_cell(self, ranges):
        t = DominanceTransform(attributes=3, attribute_order=5)
        point = t.to_point(ranges)
        assert t.universe.contains_point(point)

    @given(subscription_strategy(2, 31))
    def test_self_covering(self, ranges):
        t = DominanceTransform(attributes=2, attribute_order=5)
        assert t.covers(ranges, ranges)


def packed_first_covering(stored, query, exclude=None, order=4):
    """``first_covering`` on ``(id, ranges)`` pairs and a range query, packed at ``order``."""
    return first_covering(
        ((sub_id, pack_box(ranges, order)) for sub_id, ranges in stored),
        pack_box(query, order),
        packed_guard(len(query), order),
        exclude,
    )


class TestFirstCovering:
    """The one comparison loop of the covering layer, over ``(id, box)`` pairs.

    The cases are written as ranges of order 4 and packed on the way in.
    """

    def test_first_cover_in_iteration_order_and_the_comparisons_to_reach_it(self):
        stored = [("a", ((3, 4), (0, 9))), ("b", ((0, 9), (0, 9))), ("c", ((0, 9), (0, 9)))]
        assert packed_first_covering(stored, ((2, 5), (1, 2))) == ("b", 2)
        assert packed_first_covering(reversed(stored), ((2, 5), (1, 2))) == ("c", 1)

    def test_no_cover_compares_everything(self):
        stored = {"a": ((3, 4),), "b": ((0, 1),)}
        assert packed_first_covering(stored.items(), ((2, 5),)) == (None, 2)
        assert packed_first_covering(iter(()), ((2, 5),)) == (None, 0)

    def test_a_miss_on_a_later_attribute_is_no_cover(self):
        # The first attribute contains the query's; the second does not.
        assert packed_first_covering([("a", ((0, 9), (4, 6)))], ((2, 5), (3, 5))) == (None, 1)

    def test_exclude_is_skipped_and_not_counted(self):
        stored = [("self", ((2, 5),)), ("wide", ((0, 9),))]
        assert packed_first_covering(stored, ((2, 5),), exclude="self") == ("wide", 1)

    @given(
        stored=st.lists(subscription_strategy(2, 15), max_size=12),
        query=subscription_strategy(2, 15),
    )
    def test_agrees_with_ranges_cover(self, stored, query):
        pairs = [(i, ranges) for i, ranges in enumerate(stored)]
        covers = [i for i, ranges in pairs if ranges_cover(ranges, query)]
        witness, compared = packed_first_covering(pairs, query)
        assert witness == (covers[0] if covers else None)
        assert compared == (covers[0] + 1 if covers else len(pairs))
