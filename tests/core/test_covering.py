"""Tests for the approximate covering detector (subscription-facing API)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.linear_scan import LinearScanCoveringDetector
from repro.core.covering import ApproximateCoveringDetector
from repro.geometry.transform import ranges_cover


def random_subscription(rng, attributes, max_value, max_width=None):
    ranges = []
    for _ in range(attributes):
        lo = rng.randint(0, max_value)
        width = rng.randint(0, max_width if max_width is not None else max_value - lo)
        ranges.append((lo, min(max_value, lo + width)))
    return tuple(ranges)


class TestBasicAPI:
    def test_add_query_remove(self):
        det = ApproximateCoveringDetector(attributes=2, attribute_order=8)
        det.add_subscription("wide", [(0, 250), (10, 240)])
        assert "wide" in det
        assert len(det) == 1
        assert det.subscription("wide") == ((0, 250), (10, 240))
        result = det.find_covering([(50, 100), (50, 100)])
        assert result.covered and result.covering_id == "wide"
        assert det.remove_subscription("wide")
        assert not det.remove_subscription("wide")
        assert not det.find_covering([(50, 100), (50, 100)]).covered

    def test_covered(self):
        det = ApproximateCoveringDetector(attributes=1, attribute_order=6)
        det.add_subscription("s", [(10, 50)])
        assert det.find_covering([(20, 40)]).covered
        assert not det.find_covering([(5, 40)]).covered

    def test_subscriptions_copy(self):
        det = ApproximateCoveringDetector(attributes=1, attribute_order=6)
        det.add_subscription("s", [(1, 5)])
        subs = det.subscriptions()
        subs["t"] = ((0, 0),)
        assert "t" not in det

    def test_replace_subscription(self):
        det = ApproximateCoveringDetector(attributes=1, attribute_order=8)
        det.add_subscription("s", [(0, 255)])
        det.add_subscription("s", [(100, 110)])
        assert len(det) == 1
        assert not det.find_covering([(0, 200)]).covered

    def test_a_replaced_id_counts_as_newly_inserted(self):
        """Compare side, ε-search and the exact strategy's scan all report the
        cover stored before a replaced one."""
        det = ApproximateCoveringDetector(attributes=2, attribute_order=6)
        linear = LinearScanCoveringDetector(attributes=2, attribute_order=6)
        for sub_id in ("a", "b", "a"):
            det.add_subscription(sub_id, [(0, 40), (0, 40)])
            linear.add_subscription(sub_id, [(0, 40), (0, 40)])
        query = [(10, 20), (10, 20)]
        compared = det.find_covering_profile(det.profile(query))
        assert compared.query is None and compared.covering_id == "b"
        assert det.find_covering(query).covering_id == "b"
        assert linear.find_covering(query) == "b"

    def test_validation_errors(self):
        det = ApproximateCoveringDetector(attributes=2, attribute_order=6)
        with pytest.raises(ValueError):
            det.add_subscription("bad", [(0, 10)])
        with pytest.raises(ValueError):
            det.add_subscription("bad", [(10, 5), (0, 1)])
        with pytest.raises(ValueError):
            det.find_covering([(0, 64), (0, 1)])


class TestExclusion:
    def test_exclude_self_when_already_stored(self):
        det = ApproximateCoveringDetector(attributes=1, attribute_order=8)
        det.add_subscription("self", [(10, 200)])
        # Without exclusion, the subscription covers itself.
        assert det.find_covering([(10, 200)]).covering_id == "self"
        # With exclusion, nothing else covers it.
        assert det.find_covering([(10, 200)], exclude="self").covering_id is None
        # The excluded subscription is restored afterwards.
        assert "self" in det and det.find_covering([(50, 100)]).covered

    def test_exclude_restores_after_query(self):
        det = ApproximateCoveringDetector(attributes=1, attribute_order=8)
        det.add_subscription("a", [(0, 255)])
        det.add_subscription("b", [(10, 20)])
        result = det.find_covering([(12, 18)], exclude="a")
        assert result.covering_id == "b"
        assert det.find_covering([(30, 40)]).covering_id == "a"

    @pytest.mark.parametrize("search", ["find_covering", "find_covering_exhaustive"])
    def test_excluding_a_query_does_not_reorder_identical_covers(self, search):
        """Two identical rectangles share a key bucket; a query excluding the
        first must not move it behind the second for later queries."""
        det = ApproximateCoveringDetector(attributes=2, attribute_order=6)
        det.add_subscription("a", [(0, 40), (0, 40)])
        det.add_subscription("b", [(0, 40), (0, 40)])
        query = [(10, 20), (10, 20)]
        find = getattr(det, search)
        assert find(query).covering_id == "a"
        assert find(query, exclude="a").covering_id == "b"
        assert find(query).covering_id == "a"
        assert find(query, exclude="b").covering_id == "a"
        assert find(query).query.runs_probed == find(query, exclude="b").query.runs_probed


class TestSoundnessAndRecall:
    def test_witness_is_always_a_true_cover(self):
        rng = random.Random(3)
        det = ApproximateCoveringDetector(
            attributes=2, attribute_order=8, cube_budget=1_000_000, epsilon=0.1
        )
        stored = {}
        for i in range(200):
            ranges = random_subscription(rng, 2, 255)
            stored[i] = ranges
            det.add_subscription(i, ranges)
        for _ in range(60):
            query = random_subscription(rng, 2, 255, max_width=60)
            result = det.find_covering(query)
            assert det.verify_witness(result, query)
            if result.covered:
                assert ranges_cover(stored[result.covering_id], query)

    def test_exhaustive_matches_linear_ground_truth(self):
        rng = random.Random(11)
        det = ApproximateCoveringDetector(
            attributes=1, attribute_order=10, epsilon=0.05, cube_budget=500_000
        )
        for i in range(300):
            det.add_subscription(i, random_subscription(rng, 1, 1023))
        for _ in range(80):
            query = random_subscription(rng, 1, 1023, max_width=200)
            truth = det.all_covering(query)
            exhaustive = det.find_covering_exhaustive(query)
            assert exhaustive.covered == bool(truth)
            if exhaustive.covered:
                assert exhaustive.covering_id in truth

    def test_wider_epsilon_never_finds_nonexistent_cover(self):
        rng = random.Random(17)
        det = ApproximateCoveringDetector(
            attributes=2, attribute_order=6, cube_budget=1_000_000, epsilon=0.4
        )
        for i in range(100):
            det.add_subscription(i, random_subscription(rng, 2, 63))
        for _ in range(40):
            query = random_subscription(rng, 2, 63)
            truth = set(det.all_covering(query))
            result = det.find_covering(query)
            if result.covered:
                assert result.covering_id in truth

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_property_nested_subscription_is_detected_exhaustively(self, data):
        """If we store a strict widening of the query, exhaustive search must find a cover."""
        attributes = data.draw(st.integers(1, 2))
        det = ApproximateCoveringDetector(
            attributes=attributes, attribute_order=6, cube_budget=200_000
        )
        query = []
        outer = []
        for _ in range(attributes):
            lo = data.draw(st.integers(1, 50))
            hi = data.draw(st.integers(lo, 60))
            query.append((lo, hi))
            outer.append((data.draw(st.integers(0, lo)), data.draw(st.integers(hi, 63))))
        det.add_subscription("outer", outer)
        result = det.find_covering_exhaustive(query)
        assert result.covered and result.covering_id == "outer"

    def test_all_covering_ground_truth(self):
        det = ApproximateCoveringDetector(attributes=1, attribute_order=6)
        det.add_subscription("a", [(0, 60)])
        det.add_subscription("b", [(10, 50)])
        det.add_subscription("c", [(30, 63)])
        assert set(det.all_covering([(20, 40)])) == {"a", "b"}
        assert det.all_covering([(0, 63)]) == []

    def test_verify_witness_rejects_stale_id(self):
        det = ApproximateCoveringDetector(attributes=1, attribute_order=6)
        det.add_subscription("a", [(0, 60)])
        result = det.find_covering([(10, 20)])
        det.remove_subscription("a")
        assert not det.verify_witness(result, [(10, 20)])


class TestQueryAccounting:
    def test_runs_probed_reported(self):
        det = ApproximateCoveringDetector(
            attributes=1, attribute_order=10, cube_budget=1_000_000, epsilon=0.05
        )
        det.add_subscription("wide", [(0, 1000)])
        result = det.find_covering([(100, 500)])
        assert result.covered
        assert result.query.runs_probed >= 1
        assert 0 < result.query.coverage <= 1

    def test_epsilon_override_per_query(self):
        det = ApproximateCoveringDetector(
            attributes=1, attribute_order=10, cube_budget=1_000_000, epsilon=0.5
        )
        det.add_subscription("wide", [(0, 1000)])
        strict = det.find_covering([(100, 500)], epsilon=0.01)
        loose = det.find_covering([(100, 500)], epsilon=0.9)
        # The strict query searches 99% of the region and must find the cover;
        # the very loose query may legitimately stop before reaching it, but if
        # it does answer, the answer must be sound.
        assert strict.covered and strict.covering_id == "wide"
        assert strict.query.epsilon == 0.01
        assert loose.query.epsilon == 0.9
        assert det.verify_witness(loose, [(100, 500)])
        assert loose.query.coverage >= 0.1 - 1e-9 or loose.covered
