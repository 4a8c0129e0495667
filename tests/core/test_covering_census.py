"""A covering profile bounds its plan's size without the census, and builds the plan only on read.

``CoveringProfiler.profile`` returns a subscription's validated ranges and
``cubes_floor``: the budget, or the cubes of the largest standard cube that
fits the dominance region needed to reach the coverage target, whichever is
fewer.  The point and the ``DominancePlan`` are built the first time they are
read.  Pinned here:

* **The floor is sound** — never above ``plan.cubes``, for random dominance
  points and random subscriptions, on every curve, at ε ∈ {0, 0.05, 0.3} and
  budgets {1, 64, 65, 2,000}; on the stock and sensor pools at
  ``IndexConfig()`` it *is* the census.
* **Lazy** — a profile builds nothing until its plan is read, builds it once,
  and counts it in ``CoveringProfiler.plans_built``.
* **The paranoia guard** — a profile built under another curve, ε, budget or
  attribute order is answered from its ranges by ``find_covering``, and its
  plan is not built.
* **The census count** — the size a plan announces from the census is the
  number of cubes an exhausted execution examines.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx_dominance import (
    ApproximateDominanceIndex,
    build_dominance_plan,
    plan_cubes_floor,
)
from repro.core.covering import ApproximateCoveringDetector, CoveringProfiler
from repro.geometry.universe import Universe
from repro.index.config import IndexConfig
from repro.pubsub.subscription import Subscription
from repro.sfc.factory import CURVE_KINDS, make_curve
from repro.workloads.scenarios import (
    auction_scenario,
    sensor_network_scenario,
    stock_market_scenario,
)

ATTRIBUTES = 2
ORDER = 5
MAX_VALUE = (1 << ORDER) - 1
EPSILONS = (0.0, 0.05, 0.3)
BUDGETS = (1, 64, 65, 2_000)


@st.composite
def rect(draw):
    ranges = []
    for _ in range(ATTRIBUTES):
        lo = draw(st.integers(0, MAX_VALUE))
        ranges.append((lo, draw(st.integers(lo, MAX_VALUE))))
    return tuple(ranges)


POINTS = st.tuples(*[st.integers(0, MAX_VALUE)] * (2 * ATTRIBUTES))


# ------------------------------------------------------------ the floor is sound
@pytest.mark.parametrize("curve_kind", CURVE_KINDS)
@settings(deadline=None)
@given(point=POINTS, ranges=rect())
def test_floor_never_exceeds_the_census(curve_kind, point, ranges):
    profilers = [
        CoveringProfiler(
            ATTRIBUTES, ORDER, IndexConfig(curve=curve_kind, epsilon=eps, cube_budget=budget)
        )
        for eps in EPSILONS
        for budget in BUDGETS
    ]
    universe = profilers[0].transform.universe
    curve = make_curve(curve_kind, universe)
    lengths = [universe.max_coordinate - x + 1 for x in point]
    for profiler in profilers:
        eps, budget = profiler.config.epsilon, profiler.config.cube_budget
        plan = build_dominance_plan(universe, point, epsilon=eps, cube_budget=budget, curve=curve)
        assert 1 <= plan_cubes_floor(lengths, epsilon=eps, cube_budget=budget) <= plan.cubes
        profile = profiler.profile(ranges)
        assert 1 <= profile.cubes_floor <= profile.plan.cubes


POOLS = (stock_market_scenario, sensor_network_scenario)


@pytest.mark.parametrize("build", POOLS, ids=lambda build: build.__name__)
def test_floor_is_the_census_on_the_gated_pools(build):
    scenario = build(num_subscriptions=400, num_events=0, seed=1)
    schema = scenario.schema
    profiler = CoveringProfiler(schema.num_attributes, schema.order, IndexConfig())
    for i, constraints in enumerate(scenario.subscriptions):
        profile = profiler.profile(Subscription(schema, constraints, sub_id=i).ranges)
        assert profile.cubes_floor == profile.plan.cubes


def test_auction_floors_leave_room_for_the_census():
    """Auction rectangles have floors of a cube or two: a link of three runs the census."""
    scenario = auction_scenario(num_subscriptions=400, num_events=0, seed=1)
    schema = scenario.schema
    profiler = CoveringProfiler(schema.num_attributes, schema.order, IndexConfig())
    floors = [
        profiler.profile(Subscription(schema, constraints, sub_id=i).ranges).cubes_floor
        for i, constraints in enumerate(scenario.subscriptions)
    ]
    assert min(floors) <= 2


# ---------------------------------------------------------------------- lazy
def test_profile_builds_its_plan_once_on_first_read():
    profiler = CoveringProfiler(ATTRIBUTES, ORDER, IndexConfig())
    profile = profiler.profile([(3, 9), (0, 20)])
    assert profiler.plans_built == 0
    assert profile.point == profiler.transform.to_point(profile.ranges)
    assert profiler.plans_built == 0
    plan = profile.plan
    assert profile.plan is plan and profiler.plans_built == 1
    expected = build_dominance_plan(
        profiler.transform.universe,
        profile.point,
        epsilon=profiler.config.epsilon,
        cube_budget=profiler.config.cube_budget,
        curve=profiler.curve,
    )
    assert (plan.cubes, plan.final_termination, plan.curve_kind) == (
        expected.cubes, expected.final_termination, expected.curve_kind
    )
    assert plan.materialised_steps() == 0


def test_a_link_within_the_floor_is_compared_without_the_census():
    profiler = CoveringProfiler(ATTRIBUTES, ORDER, IndexConfig(cube_budget=4))
    detector = ApproximateCoveringDetector(ATTRIBUTES, ORDER, IndexConfig(cube_budget=4))
    profile = profiler.profile([(4, 5), (6, 7)])
    assert profile.cubes_floor == 4
    for i in range(4):
        detector.add_subscription(i, [(i, MAX_VALUE), (0, MAX_VALUE)])
        result = detector.find_covering_profile(profile)
        assert result.query is None and result.covering_id == 0
    assert profiler.plans_built == 0 and detector._index is None
    detector.add_subscription(4, [(0, 1), (0, 1)])
    result = detector.find_covering_profile(profile)
    assert profiler.plans_built == 1
    assert (result.query is None) == (len(detector) <= profile.plan.cubes)


# ---------------------------------------------------------- the paranoia guard
FOREIGN = {
    "curve": (ORDER, IndexConfig(curve="hilbert")),
    "epsilon": (ORDER, IndexConfig(epsilon=0.3)),
    "budget": (ORDER, IndexConfig(cube_budget=64)),
    "order": (ORDER + 1, IndexConfig()),
}


@pytest.mark.parametrize("kind", sorted(FOREIGN))
def test_a_foreign_profile_falls_back_to_its_ranges(kind):
    detector = ApproximateCoveringDetector(ATTRIBUTES, ORDER, IndexConfig())
    for i in range(6):
        detector.add_subscription(i, [(i, MAX_VALUE - i), (2 * i, MAX_VALUE)])
    order, config = FOREIGN[kind]
    foreign = CoveringProfiler(ATTRIBUTES, order, config)
    for ranges in ([(5, 9), (12, 20)], [(0, MAX_VALUE), (0, 3)]):
        profile = foreign.profile(ranges)
        assert not detector.compatible_profile(profile)
        result = detector.find_covering_profile(profile)
        expected = detector.find_covering(ranges)
        assert result.query is not None
        assert result.covering_id == expected.covering_id
        assert result.query.runs_probed == expected.query.runs_probed
    assert foreign.plans_built == 0


def test_a_profile_differing_only_in_storage_knobs_is_compatible():
    detector = ApproximateCoveringDetector(ATTRIBUTES, ORDER, IndexConfig())
    profiler = CoveringProfiler(ATTRIBUTES, ORDER, IndexConfig(run_budget=4))
    profile = profiler.profile([(5, 9), (12, 20)])
    assert detector.compatible_profile(profile)
    assert detector.find_covering_profile(profile).query is None
    assert profiler.plans_built == 0


@pytest.mark.parametrize("curve_kind", CURVE_KINDS)
def test_census_count_is_what_an_exhausted_execution_examines(curve_kind):
    universe = Universe(dims=4, order=5)
    curve = make_curve(curve_kind, universe)
    rng = random.Random(9)
    points = [tuple(rng.randrange(universe.side) for _ in range(universe.dims)) for _ in range(8)]
    points += [(0,) * universe.dims, (universe.side - 1,) * universe.dims]
    for budget in (1, 64, 65, 2_000):
        empty = ApproximateDominanceIndex(
            universe=universe, curve=curve, cube_budget=budget
        )
        for epsilon in (0.0, 0.05, 0.3):
            for point in points:
                plan = build_dominance_plan(
                    universe, point, epsilon=epsilon, cube_budget=budget, curve=curve
                )
                assert plan.materialised_steps() == 0
                assert 1 <= plan.cubes <= budget
                result = empty.execute_plan(plan)
                assert result.cubes_examined == plan.cubes
                assert result.termination == plan.final_termination
