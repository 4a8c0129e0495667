"""Tests for the k-d tree and range tree dominance baselines."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.index.kdtree import KDTree
from repro.index.range_tree import RangeTree


def brute_force_dominating(entries, query):
    return [
        (item_id, point)
        for item_id, point in entries
        if all(p >= q for p, q in zip(point, query))
    ]


def random_points(rng, count, dims, max_value):
    return [
        (f"p{i}", tuple(rng.randint(0, max_value) for _ in range(dims))) for i in range(count)
    ]


class TestKDTree:
    def test_empty_tree(self):
        tree = KDTree(dims=3)
        assert len(tree) == 0
        assert tree.find_dominating((0, 0, 0)) is None

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            KDTree(dims=0)

    def test_insert_and_find(self):
        tree = KDTree(dims=2)
        tree.insert("a", (5, 5))
        tree.insert("b", (2, 9))
        found = tree.find_dominating((4, 4))
        assert found is not None and found[0] == "a"
        assert tree.find_dominating((6, 9)) is None

    def test_point_dimension_validation(self):
        tree = KDTree(dims=2)
        with pytest.raises(ValueError):
            tree.insert("a", (1, 2, 3))
        with pytest.raises(ValueError):
            tree.find_dominating((1,))

    def test_find_matches_brute_force(self):
        rng = random.Random(17)
        entries = random_points(rng, 300, 4, 63)
        tree = KDTree(dims=4)
        for item_id, point in entries:
            tree.insert(item_id, point)
        for _ in range(100):
            query = tuple(rng.randint(0, 63) for _ in range(4))
            expected = brute_force_dominating(entries, query)
            found = tree.find_dominating(query)
            if expected:
                assert found in expected
            else:
                assert found is None

    def test_rebuild_preserves_answers(self):
        rng = random.Random(31)
        entries = random_points(rng, 200, 2, 127)
        tree = KDTree(dims=2)
        for item_id, point in entries:
            tree.insert(item_id, point)
        queries = [tuple(rng.randint(0, 127) for _ in range(2)) for _ in range(30)]
        before = [tree.find_dominating(q) is not None for q in queries]
        tree.rebuild()
        after = [tree.find_dominating(q) is not None for q in queries]
        assert before == after
        assert len(tree) == 200

    def test_stats_counters(self):
        tree = KDTree(dims=2)
        for i in range(20):
            tree.insert(i, (i, i))
        tree.find_dominating((5, 5))
        assert tree.stats.queries == 1
        assert tree.stats.nodes_visited >= 1


class TestRangeTree:
    def test_empty(self):
        tree = RangeTree.build(2, [])
        assert len(tree) == 0
        assert tree.find_dominating((0, 0)) is None

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            RangeTree(dims=0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RangeTree.build(2, [("a", (1, 2, 3))])
        tree = RangeTree.build(2, [("a", (1, 2))])
        with pytest.raises(ValueError):
            tree.find_dominating((1, 2, 3))

    def test_single_point(self):
        tree = RangeTree.build(3, [("a", (4, 5, 6))])
        assert tree.find_dominating((4, 5, 6)) == ("a", (4, 5, 6))
        assert tree.find_dominating((0, 0, 0)) == ("a", (4, 5, 6))
        assert tree.find_dominating((5, 5, 6)) is None

    def test_find_matches_brute_force(self):
        rng = random.Random(7)
        entries = random_points(rng, 250, 4, 63)
        tree = RangeTree.build(4, entries)
        for _ in range(120):
            query = tuple(rng.randint(0, 63) for _ in range(4))
            expected = brute_force_dominating(entries, query)
            found = tree.find_dominating(query)
            if expected:
                assert found is not None
                assert all(p >= q for p, q in zip(found[1], query))
            else:
                assert found is None

    def test_insert_rebuilds(self):
        tree = RangeTree.build(2, [("a", (1, 1))])
        tree.insert("b", (9, 9))
        assert len(tree) == 2
        assert tree.find_dominating((5, 5))[0] == "b"

    def test_storage_grows_superlinearly(self):
        """The space blow-up the paper cites: storage cells ≫ number of points."""
        rng = random.Random(3)
        entries = random_points(rng, 400, 3, 255)
        tree = RangeTree.build(3, entries)
        assert tree.storage_cells() > 4 * len(entries)

    def test_stats(self):
        tree = RangeTree.build(2, [("a", (1, 1)), ("b", (2, 2))])
        tree.find_dominating((0, 0))
        assert tree.stats.queries == 1
        assert tree.stats.nodes_visited >= 1

    @settings(max_examples=30, deadline=None)
    @given(
        points=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15)),
            min_size=1,
            max_size=40,
        ),
        query=st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15)),
    )
    def test_property_any_witness_is_correct_and_none_means_none(self, points, query):
        entries = [(i, p) for i, p in enumerate(points)]
        tree = RangeTree.build(3, entries)
        expected = brute_force_dominating(entries, query)
        found = tree.find_dominating(query)
        if expected:
            assert found is not None
            assert all(p >= q for p, q in zip(found[1], query))
        else:
            assert found is None
