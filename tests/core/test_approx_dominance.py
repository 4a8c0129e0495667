"""Tests for the ε-approximate point dominance index (the paper's core algorithm)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.approx_dominance import ApproximateDominanceIndex, TerminationReason
from repro.geometry.transform import dominates
from repro.geometry.universe import Universe
from repro.sfc.factory import CURVE_KINDS, make_curve
from repro.sfc.hilbert import HilbertCurve


def brute_force_dominating(points, query):
    return [pid for pid, p in points.items() if dominates(p, query)]


class TestConstruction:
    def test_defaults(self):
        index = ApproximateDominanceIndex(Universe(2, 6))
        assert len(index) == 0
        assert index.curve is not None
        assert index.curve.name == "z-order"

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            ApproximateDominanceIndex(Universe(2, 4), epsilon=1.0)
        with pytest.raises(ValueError):
            ApproximateDominanceIndex(Universe(2, 4), epsilon=-0.1)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            ApproximateDominanceIndex(Universe(2, 4), cube_budget=0)

    def test_curve_universe_mismatch(self):
        with pytest.raises(ValueError):
            ApproximateDominanceIndex(Universe(2, 4), curve=HilbertCurve(Universe(2, 5)))

    def test_query_epsilon_validation(self):
        index = ApproximateDominanceIndex(Universe(2, 4))
        with pytest.raises(ValueError):
            index.query((0, 0), epsilon=1.5)


class TestUpdates:
    def test_insert_remove_contains(self):
        index = ApproximateDominanceIndex(Universe(2, 5))
        index.insert("a", (3, 4))
        assert "a" in index
        assert len(index) == 1
        assert index.remove("a")
        assert not index.remove("a")
        assert "a" not in index

    def test_reinsert_moves_point(self):
        index = ApproximateDominanceIndex(Universe(2, 5))
        index.insert("a", (0, 0))
        index.insert("a", (31, 31))
        assert len(index) == 1
        result = index.query((30, 30), epsilon=0.0)
        assert result.found and result.item.item_id == "a"


class TestSoundness:
    """Any returned witness truly dominates the query — for every ε and curve."""

    @pytest.mark.parametrize("kind", CURVE_KINDS)
    def test_witness_always_dominates(self, kind):
        universe = Universe(3, 5)
        index = ApproximateDominanceIndex(universe, curve=make_curve(kind, universe))
        rng = random.Random(1)
        points = {}
        for i in range(300):
            p = tuple(rng.randint(0, 31) for _ in range(3))
            points[i] = p
            index.insert(i, p)
        for _ in range(60):
            query = tuple(rng.randint(0, 31) for _ in range(3))
            for eps in (0.0, 0.1, 0.5):
                result = index.query(query, epsilon=eps)
                if result.found:
                    assert dominates(result.item.point, query)
                    assert result.termination == TerminationReason.FOUND

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_property_soundness_and_exhaustive_completeness(self, data):
        dims = data.draw(st.integers(2, 3))
        order = data.draw(st.integers(2, 4))
        universe = Universe(dims, order)
        index = ApproximateDominanceIndex(universe, cube_budget=100_000)
        count = data.draw(st.integers(0, 30))
        points = {}
        for i in range(count):
            p = tuple(
                data.draw(st.integers(0, universe.max_coordinate)) for _ in range(dims)
            )
            points[i] = p
            index.insert(i, p)
        query = tuple(data.draw(st.integers(0, universe.max_coordinate)) for _ in range(dims))
        truth = brute_force_dominating(points, query)

        exhaustive = index.query(query, epsilon=0.0)
        # Exhaustive search is complete: finds a witness iff one exists.
        assert exhaustive.found == bool(truth)
        if exhaustive.found:
            assert dominates(exhaustive.item.point, query)

        approx = index.query(query, epsilon=0.25)
        if approx.found:
            assert approx.item.item_id in truth


class TestExhaustiveCompleteness:
    def test_exhaustive_finds_corner_point(self):
        """A point hiding right at the query corner is found by ε=0 even though
        an approximate query may legitimately skip it."""
        universe = Universe(2, 8)
        index = ApproximateDominanceIndex(universe)
        query = (129, 77)
        index.insert("corner", query)  # dominates itself, sits in the final sliver
        exhaustive = index.query(query, epsilon=0.0)
        assert exhaustive.found and exhaustive.item.item_id == "corner"

    def test_empty_index_reports_not_found(self):
        universe = Universe(2, 6)
        index = ApproximateDominanceIndex(universe)
        result = index.query((10, 10), epsilon=0.1)
        assert not result.found
        assert result.termination in (
            TerminationReason.COVERAGE_REACHED,
            TerminationReason.REGION_EXHAUSTED,
        )
        assert result.coverage >= 0.9 - 1e-9

    def test_witness_follows_insert_and_remove(self):
        universe = Universe(2, 6)
        index = ApproximateDominanceIndex(universe)
        index.insert("w", (60, 60))
        assert index.query((10, 10)).item.item_id == "w"
        index.remove("w")
        assert index.query((10, 10)).item is None


class TestCoverageAccounting:
    def test_coverage_meets_epsilon_when_not_found(self):
        universe = Universe(2, 9)
        index = ApproximateDominanceIndex(universe, cube_budget=1_000_000)
        # Points that do NOT dominate the query: below it in one coordinate.
        index.insert("low", (0, 0))
        for eps in (0.3, 0.1, 0.02):
            result = index.query((200, 300), epsilon=eps)
            assert not result.found
            assert result.coverage >= 1 - eps - 1e-9
            assert result.searched_volume <= result.region_volume

    def test_exhaustive_coverage_is_total(self):
        universe = Universe(2, 7)
        index = ApproximateDominanceIndex(universe)
        result = index.query((99, 53), epsilon=0.0)
        assert result.termination == TerminationReason.REGION_EXHAUSTED
        assert result.searched_volume == result.region_volume

    def test_runs_probed_at_most_cubes_examined(self):
        universe = Universe(2, 9)
        index = ApproximateDominanceIndex(universe)
        result = index.query((255, 255), epsilon=0.0)
        assert result.runs_probed <= result.cubes_examined

    def test_query_at_top_corner_costs_one_run(self):
        """The dominance region of the top corner is a single cell = a single run."""
        universe = Universe(3, 6)
        index = ApproximateDominanceIndex(universe)
        corner = universe.top_corner
        result = index.query(corner, epsilon=0.0)
        assert result.cubes_examined == 1
        assert result.region_volume == 1

    def test_aspect_ratio_reported(self):
        universe = Universe(2, 8)
        index = ApproximateDominanceIndex(universe)
        # lengths: (256-200, 256-4) = (56, 252): b=6 vs 8 → α = 2
        result = index.query((200, 4), epsilon=0.1)
        assert result.aspect_ratio == 2


class TestCubeBudget:
    def test_budget_terminates_large_exhaustive_query(self):
        universe = Universe(2, 10)
        index = ApproximateDominanceIndex(universe, cube_budget=50)
        result = index.query((3, 5), epsilon=0.0)  # huge dominance region
        assert result.termination == TerminationReason.CUBE_BUDGET
        assert result.cubes_examined <= 50 + 1
        assert not result.found

    def test_budget_does_not_hide_existing_witness_in_early_cubes(self):
        universe = Universe(2, 10)
        index = ApproximateDominanceIndex(universe, cube_budget=50)
        index.insert("big", (1000, 1000))
        result = index.query((3, 5), epsilon=0.0)
        assert result.found and result.item.item_id == "big"


class TestMergeAblation:
    def test_merging_never_increases_probes(self):
        universe = Universe(2, 8)
        rng = random.Random(4)
        merged = ApproximateDominanceIndex(universe, merge_adjacent_runs=True)
        unmerged = ApproximateDominanceIndex(universe, merge_adjacent_runs=False)
        for i in range(100):
            p = (rng.randint(0, 255), rng.randint(0, 255))
            merged.insert(i, p)
            unmerged.insert(i, p)
        for _ in range(20):
            q = (rng.randint(0, 255), rng.randint(0, 255))
            r_merged = merged.query(q, epsilon=0.0)
            r_unmerged = unmerged.query(q, epsilon=0.0)
            assert r_merged.found == r_unmerged.found
            assert r_merged.runs_probed <= r_unmerged.runs_probed


class TestOtherCurves:
    def test_hilbert_backed_index_is_sound_and_exhaustive_complete(self):
        universe = Universe(2, 5)
        index = ApproximateDominanceIndex(universe, curve=HilbertCurve(universe))
        rng = random.Random(9)
        points = {}
        for i in range(100):
            p = (rng.randint(0, 31), rng.randint(0, 31))
            points[i] = p
            index.insert(i, p)
        for _ in range(30):
            q = (rng.randint(0, 31), rng.randint(0, 31))
            truth = brute_force_dominating(points, q)
            result = index.query(q, epsilon=0.0)
            assert result.found == bool(truth)
            if result.found:
                assert dominates(result.item.point, q)
