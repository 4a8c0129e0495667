"""A detector's dominance index, built on first read, answers as one kept up all along.

``ApproximateCoveringDetector`` keeps only the stored ranges until something
reads its ε-search index (``find_covering``, ``find_covering_exhaustive``,
``find_covering_profile`` above the crossover, or ``.index``), then inserts
them in storage order and maintains the index from there.  Here a detector is driven
through random add / replace / remove / query sequences beside an
``ApproximateDominanceIndex`` updated on every step, and every check must
report the same witness and the same cost on both.  A query that excludes an
id is also held to an index that never stored that id.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx_dominance import ApproximateDominanceIndex
from repro.core.covering import ApproximateCoveringDetector
from repro.geometry.transform import first_covering
from repro.index.config import IndexConfig
from repro.sfc.factory import CURVE_KINDS, make_curve

ATTRIBUTES = 2
ORDER = 4
MAX_VALUE = (1 << ORDER) - 1
IDS = st.integers(min_value=0, max_value=7)


@st.composite
def rect(draw):
    ranges = []
    for _ in range(ATTRIBUTES):
        lo = draw(st.integers(0, MAX_VALUE))
        ranges.append((lo, draw(st.integers(lo, MAX_VALUE))))
    return tuple(ranges)


#: Adds reuse a small id pool, so many of them replace a stored subscription.
OPERATIONS = st.one_of(
    st.tuples(st.just("add"), IDS, rect()),
    st.tuples(st.just("remove"), IDS),
    st.tuples(
        st.just("find"),
        rect(),
        st.none() | IDS,
        st.sampled_from([None, 0.0]),
    ),
    st.tuples(st.just("profile"), rect()),
)


def outcome(covering_id, query, comparisons=0):
    """What a check reports: witness, runs probed, termination and work units."""
    if query is None:
        return covering_id, 0, None, comparisons
    return covering_id, query.runs_probed, query.termination, comparisons + query.runs_probed


def without(index, excluded):
    """A fresh index holding ``index``'s items except ``excluded``, bucket order kept."""
    copy = ApproximateDominanceIndex(
        universe=index.universe,
        epsilon=index.epsilon,
        curve=index.curve,
        cube_budget=index.cube_budget,
    )
    for item in index.array.items():
        if item.item_id != excluded:
            copy.insert(item.item_id, item.point)
    return copy


@settings(deadline=None)
@given(
    curve=st.sampled_from(CURVE_KINDS),
    epsilon=st.sampled_from([0.0, 0.05, 0.3]),
    cube_budget=st.sampled_from([1, 4, 16, 2_000]),
    operations=st.lists(OPERATIONS, max_size=40),
)
def test_lazy_index_answers_as_an_eager_one(curve, epsilon, cube_budget, operations):
    config = IndexConfig(curve=curve, epsilon=epsilon, cube_budget=cube_budget)
    lazy = ApproximateCoveringDetector(ATTRIBUTES, ORDER, config)
    transform = lazy.transform
    eager = ApproximateDominanceIndex(
        universe=transform.universe,
        epsilon=epsilon,
        curve=make_curve(curve, transform.universe),
        cube_budget=cube_budget,
    )
    stored = {}  # the ranges in storage order: a replaced id moves to the end
    built = False
    for operation in operations:
        kind = operation[0]
        if kind == "add":
            _, sub_id, ranges = operation
            lazy.add_subscription(sub_id, ranges)
            eager.insert(sub_id, transform.to_point(ranges))
            stored.pop(sub_id, None)
            stored[sub_id] = ranges
        elif kind == "remove":
            sub_id = operation[1]
            assert lazy.remove_subscription(sub_id) == (sub_id in stored)
            eager.remove(sub_id)
            stored.pop(sub_id, None)
        elif kind == "find":
            _, ranges, exclude, query_epsilon = operation
            point = transform.to_point(ranges)
            expected = eager.query(point, query_epsilon, exclude)
            assert expected == without(eager, exclude).query(point, query_epsilon)
            if query_epsilon == 0.0:
                result = lazy.find_covering_exhaustive(ranges, exclude=exclude)
            else:
                result = lazy.find_covering(ranges, exclude=exclude)
            witness = expected.item.item_id if expected.item is not None else None
            assert outcome(result.covering_id, result.query) == outcome(witness, expected)
            built = True
        else:
            profile = lazy.profile(operation[1])
            if len(stored) <= profile.plan.cubes:
                covering_id, compared = first_covering(stored.items(), profile.ranges)
                expected = outcome(covering_id, None, compared)
            else:
                query = eager.execute_plan(profile.plan)
                expected = outcome(query.item.item_id if query.item else None, query)
                built = True
            result = lazy.find_covering_profile(profile)
            assert outcome(result.covering_id, result.query, result.comparisons) == expected
        assert lazy.subscriptions() == stored
        assert list(lazy.subscriptions()) == list(stored)
        assert (lazy._index is not None) == built
        if built:
            assert list(lazy.index.array.items()) == list(eager.array.items())
    # A build from whatever state the sequence left equals the eager index.
    assert list(lazy.index.array.items()) == list(eager.array.items())
    assert len(lazy.index) == len(eager)


def test_reading_the_index_builds_it_once():
    detector = ApproximateCoveringDetector(ATTRIBUTES, ORDER, IndexConfig(cube_budget=4))
    detector.add_subscription("wide", [(0, MAX_VALUE), (0, MAX_VALUE)])
    detector.add_subscription("narrow", [(3, 4), (3, 4)])
    profile = detector.profile([(5, 6), (5, 6)])
    assert detector.compatible_profile(profile)
    assert detector.find_covering_profile(profile).query is None  # compared
    assert detector._index is None
    index = detector.index
    assert detector.index is index and len(index) == 2
    detector.add_subscription("late", [(1, 2), (1, 2)])
    detector.remove_subscription("narrow")
    assert detector.index is index
    assert sorted(item.item_id for item in index.array.items()) == ["late", "wide"]
