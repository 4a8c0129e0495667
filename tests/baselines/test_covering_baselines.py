"""Tests for the baseline covering detectors (linear scan, exhaustive SFC, probabilistic).

The exhaustive SFC baseline is the covering detector's ε = 0 search,
:meth:`~repro.core.covering.ApproximateCoveringDetector.find_covering_exhaustive`.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.linear_scan import LinearScanCoveringDetector
from repro.baselines.probabilistic import ProbabilisticCoveringDetector
from repro.core.covering import ApproximateCoveringDetector


def random_subscription(rng, attributes, max_value, max_width=None):
    ranges = []
    for _ in range(attributes):
        lo = rng.randint(0, max_value)
        width = rng.randint(0, max_width if max_width is not None else max_value - lo)
        ranges.append((lo, min(max_value, lo + width)))
    return tuple(ranges)


class TestLinearScan:
    def test_basic_covering(self):
        det = LinearScanCoveringDetector(attributes=2, attribute_order=8)
        det.add_subscription("wide", [(0, 200), (0, 200)])
        det.add_subscription("narrow", [(50, 60), (50, 60)])
        assert det.find_covering([(10, 100), (10, 100)]) == "wide"
        assert det.find_covering([(0, 255), (0, 255)]) is None
        assert det.find_covering([(55, 58), (50, 55)]) is not None

    def test_all_covering(self):
        det = LinearScanCoveringDetector(attributes=1, attribute_order=8)
        det.add_subscription("a", [(0, 100)])
        det.add_subscription("b", [(10, 90)])
        assert set(det.all_covering([(20, 80)])) == {"a", "b"}

    def test_exclude(self):
        det = LinearScanCoveringDetector(attributes=1, attribute_order=8)
        det.add_subscription("self", [(0, 100)])
        assert det.find_covering([(0, 100)], exclude="self") is None

    def test_remove_and_len(self):
        det = LinearScanCoveringDetector(attributes=1, attribute_order=8)
        det.add_subscription("a", [(0, 100)])
        assert len(det) == 1 and "a" in det
        assert det.remove_subscription("a")
        assert not det.remove_subscription("a")
        assert len(det) == 0

    def test_stats_count_comparisons(self):
        det = LinearScanCoveringDetector(attributes=1, attribute_order=8)
        for i in range(10):
            det.add_subscription(i, [(i, i + 5)])
        det.find_covering([(200, 210)])
        assert det.stats.queries == 1
        assert det.stats.comparisons == 10


def _exhaustive_detector(attributes, attribute_order):
    # A budget no exhaustive search here reaches; the default 2,000 cubes can
    # cut one short.
    return ApproximateCoveringDetector(
        attributes=attributes,
        attribute_order=attribute_order,
        cube_budget=1_000_000,
    )


class TestExhaustiveSFC:
    def test_add_remove(self):
        det = _exhaustive_detector(attributes=1, attribute_order=8)
        det.add_subscription("a", [(0, 200)])
        assert "a" in det and len(det) == 1
        assert det.find_covering_exhaustive([(10, 100)]).covering_id == "a"
        assert det.remove_subscription("a")
        assert not det.remove_subscription("a")
        assert "a" not in det and len(det) == 0
        assert not det.find_covering_exhaustive([(10, 100)]).covered

    def test_find_with_stats(self):
        det = _exhaustive_detector(attributes=1, attribute_order=8)
        det.add_subscription("a", [(0, 200)])
        result = det.find_covering_exhaustive([(10, 100)])
        assert result.covering_id == "a"
        assert result.query.runs_probed >= 1
        assert result.query.epsilon == 0.0

    def test_exclude(self):
        det = _exhaustive_detector(attributes=1, attribute_order=8)
        det.add_subscription("self", [(0, 100)])
        assert not det.find_covering_exhaustive([(0, 100)], exclude="self").covered
        assert det.find_covering_exhaustive([(0, 100)]).covering_id == "self"

    def test_subscriptions_accessor(self):
        det = _exhaustive_detector(attributes=1, attribute_order=6)
        det.add_subscription("a", [(0, 5)])
        assert det.subscriptions() == {"a": ((0, 5),)}


class TestProbabilistic:
    def test_true_cover_always_detected(self):
        """No false negatives among evaluated candidates: a true cover matches all samples."""
        rng = random.Random(9)
        det = ProbabilisticCoveringDetector(attributes=2, attribute_order=8, samples=6, seed=1)
        det.add_subscription("wide", [(0, 250), (0, 250)])
        for _ in range(30):
            query = random_subscription(rng, 2, 240, max_width=50)
            assert det.find_covering(query) is not None

    def test_can_report_false_positive_without_verification(self):
        """A candidate overlapping most of the query region can fool the sampler."""
        det = ProbabilisticCoveringDetector(attributes=1, attribute_order=10, samples=3, seed=3)
        # Candidate misses one cell of the query range: [0, 999] vs query [0, 1000].
        det.add_subscription("almost", [(1, 1023)])
        false_positives = 0
        for seed in range(60):
            det._rng = random.Random(seed)
            if det.find_covering([(0, 1000)]) is not None:
                false_positives += 1
        assert false_positives > 0  # sampling misses the uncovered corner sometimes

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            ProbabilisticCoveringDetector(attributes=1, attribute_order=4, samples=0)

    def test_add_and_remove(self):
        det = ProbabilisticCoveringDetector(attributes=1, attribute_order=8, seed=1)
        det.add_subscription("a", [(0, 255)])
        assert "a" in det and len(det) == 1
        assert det.find_covering([(5, 10)]) is not None
        assert det.remove_subscription("a")
        assert len(det) == 0


class TestCrossDetectorAgreement:
    """All exact detectors agree; the approximate one is sound w.r.t. them."""

    def test_agreement_on_random_workload(self):
        rng = random.Random(21)
        attributes, order = 2, 6
        linear = LinearScanCoveringDetector(attributes, order)
        approx = ApproximateCoveringDetector(
            attributes=attributes, attribute_order=order,
            epsilon=0.1, cube_budget=500_000
        )
        for i in range(120):
            ranges = random_subscription(rng, attributes, 63)
            linear.add_subscription(i, ranges)
            approx.add_subscription(i, ranges)
        for _ in range(50):
            query = random_subscription(rng, attributes, 63, max_width=20)
            exact_answer = linear.find_covering(query) is not None
            assert approx.find_covering_exhaustive(query).covered == exact_answer
            approx_result = approx.find_covering(query)
            if approx_result.covered:
                assert exact_answer  # soundness: approx never invents a cover
