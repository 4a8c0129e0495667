"""A covering detector answers as a bare dominance index over the same points.

``ApproximateCoveringDetector`` keeps each subscription's ranges (in storage
order: a replaced id moves to the end) and its dominance point in an
``ApproximateDominanceIndex``.  Here a detector is driven through random add
/ replace / remove / query sequences beside a bare index updated on every
step, and every check must report the same witness and the same cost on
both: ``find_covering`` / ``find_covering_exhaustive`` the bare index's
query, ``find_covering_profile`` ``first_covering`` over the stored ranges
up to the plan's size and the bare index's plan execution above it.  A query
that excludes an id is also held to an index that never stored that id.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx_dominance import ApproximateDominanceIndex
from repro.core.covering import ApproximateCoveringDetector
from repro.geometry.transform import first_covering
from repro.geometry.universe import pack_box, packed_guard

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
        cube_budget=index.cube_budget,
    )
    for item in index.array.items():
        if item.item_id != excluded:
            copy.insert(item.item_id, item.point)
    return copy


@settings(deadline=None)
@given(
    epsilon=st.sampled_from([0.0, 0.05, 0.3]),
    cube_budget=st.sampled_from([1, 4, 16, 2_000]),
    operations=st.lists(OPERATIONS, max_size=40),
)
def test_detector_answers_as_a_bare_dominance_index(epsilon, cube_budget, operations):
    detector = ApproximateCoveringDetector(ATTRIBUTES, ORDER, epsilon, cube_budget)
    transform = detector.transform
    bare = ApproximateDominanceIndex(
        universe=transform.universe,
        epsilon=epsilon,
        cube_budget=cube_budget,
    )
    stored = {}  # the ranges in storage order: a replaced id moves to the end
    for operation in operations:
        kind = operation[0]
        if kind == "add":
            _, sub_id, ranges = operation
            detector.add_subscription(sub_id, ranges)
            bare.insert(sub_id, transform.to_point(ranges))
            stored.pop(sub_id, None)
            stored[sub_id] = ranges
        elif kind == "remove":
            sub_id = operation[1]
            assert detector.remove_subscription(sub_id) == (sub_id in stored)
            bare.remove(sub_id)
            stored.pop(sub_id, None)
        elif kind == "find":
            _, ranges, exclude, query_epsilon = operation
            point = transform.to_point(ranges)
            expected = bare.query(point, query_epsilon, exclude)
            assert expected == without(bare, exclude).query(point, query_epsilon)
            if query_epsilon == 0.0:
                result = detector.find_covering_exhaustive(ranges, exclude=exclude)
            else:
                result = detector.find_covering(ranges, exclude=exclude)
            witness = expected.item.item_id if expected.item is not None else None
            assert outcome(result.covering_id, result.query) == outcome(witness, expected)
        else:
            profile = detector.profile(operation[1])
            if len(stored) <= profile.plan.cubes:
                covering_id, compared = first_covering(
                    ((i, pack_box(r, ORDER)) for i, r in stored.items()),
                    pack_box(profile.ranges, ORDER),
                    packed_guard(ATTRIBUTES, ORDER),
                )
                expected = outcome(covering_id, None, compared)
            else:
                query = bare.execute_plan(profile.plan)
                expected = outcome(query.item.item_id if query.item else None, query)
            result = detector.find_covering_profile(profile)
            assert outcome(result.covering_id, result.query, result.comparisons) == expected
        assert detector.subscriptions() == stored
        assert list(detector.subscriptions()) == list(stored)
        assert list(detector.index.array.items()) == list(bare.array.items())
