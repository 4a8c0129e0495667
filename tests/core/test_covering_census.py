"""A covering profile and the detector's compare / probe crossover.

``CoveringProfiler.profile`` returns a subscription's validated ranges, its
dominance point and its ``DominancePlan``, whose size (``plan.cubes``) the
census gives before any cube is built.  Pinned here:

* **The profile** — its point and plan are those of the transform and of
  ``build_dominance_plan`` under the profiler's parameters, and no level
  class is materialised by building it.
* **The crossover** — ``find_covering_profile`` compares a store of at most
  ``plan.cubes`` subscriptions with ``first_covering`` and executes the plan
  against a larger one.
* **The paranoia guard** — a profile built under another ε, budget or
  attribute order (its plan records all three) is answered from its ranges
  by ``find_covering``.
* **The census count** — the size a plan announces from the census is the
  number of cubes an exhausted execution examines.
"""

from __future__ import annotations

import random

import pytest

from repro.core.approx_dominance import ApproximateDominanceIndex, build_dominance_plan
from repro.core.covering import ApproximateCoveringDetector, CoveringProfiler
from repro.geometry.transform import first_covering
from repro.geometry.universe import Universe

ATTRIBUTES = 2
ORDER = 5
MAX_VALUE = (1 << ORDER) - 1


# ------------------------------------------------------------------ profiles
def test_a_profile_carries_its_point_and_its_census_counted_plan():
    profiler = CoveringProfiler(ATTRIBUTES, ORDER)
    profile = profiler.profile([(3, 9), (0, 20)])
    assert profile.ranges == ((3, 9), (0, 20))
    assert profile.point == profiler.transform.to_point(profile.ranges)
    expected = build_dominance_plan(
        profiler.transform.universe,
        profile.point,
        epsilon=profiler.epsilon,
        cube_budget=profiler.cube_budget,
    )
    plan = profile.plan
    assert (plan.point, plan.cubes, plan.final_termination) == (
        expected.point, expected.cubes, expected.final_termination
    )
    assert plan.materialised_steps() == 0  # level classes are built by executions only


# ------------------------------------------------------------- the crossover
def test_profile_check_compares_up_to_the_plan_size_and_probes_above():
    """``find_covering_profile`` is ``first_covering`` over the stored ranges
    while the detector holds at most ``plan.cubes`` subscriptions and the
    plan's execution against the index above that, at store sizes on both
    sides of every query's crossover."""
    detector = ApproximateCoveringDetector(ATTRIBUTES, ORDER, cube_budget=16)
    profiler = CoveringProfiler(ATTRIBUTES, ORDER, cube_budget=16)
    rng = random.Random(4)
    stored = {}
    queries = []
    for _ in range(12):
        lo_x, lo_y = rng.randrange(MAX_VALUE), rng.randrange(MAX_VALUE)
        queries.append([(lo_x, rng.randint(lo_x, MAX_VALUE)), (lo_y, rng.randint(lo_y, MAX_VALUE))])
    profiles = [profiler.profile(query) for query in queries]
    sides = set()
    for i in range(40):
        lo_x, lo_y = rng.randrange(MAX_VALUE // 2), rng.randrange(MAX_VALUE // 2)
        ranges = ((lo_x, rng.randint(lo_x, MAX_VALUE)), (lo_y, rng.randint(lo_y, MAX_VALUE)))
        detector.add_subscription(i, ranges)
        stored[i] = ranges
        for profile in profiles:
            result = detector.find_covering_profile(profile)
            if len(stored) <= profile.plan.cubes:
                assert result.query is None
                assert (result.covering_id, result.comparisons) == first_covering(
                    stored.items(), profile.ranges
                )
            else:
                query = detector.index.execute_plan(profile.plan)
                assert result.query == query and result.comparisons == 0
                assert result.covering_id == (query.item.item_id if query.item else None)
            sides.add(result.query is None)
    assert sides == {True, False}


# ---------------------------------------------------------- the paranoia guard
FOREIGN = {
    "epsilon": (ORDER, {"epsilon": 0.3}),
    "budget": (ORDER, {"cube_budget": 64}),
    "order": (ORDER + 1, {}),
}


@pytest.mark.parametrize("kind", sorted(FOREIGN))
def test_a_foreign_profile_falls_back_to_its_ranges(kind):
    detector = ApproximateCoveringDetector(ATTRIBUTES, ORDER)
    for i in range(6):
        detector.add_subscription(i, [(i, MAX_VALUE - i), (2 * i, MAX_VALUE)])
    order, parameters = FOREIGN[kind]
    foreign = CoveringProfiler(ATTRIBUTES, order, **parameters)
    for ranges in ([(5, 9), (12, 20)], [(0, MAX_VALUE), (0, 3)]):
        profile = foreign.profile(ranges)
        assert not detector.compatible_profile(profile)
        result = detector.find_covering_profile(profile)
        expected = detector.find_covering(ranges)
        assert result.query is not None
        assert result.covering_id == expected.covering_id
        assert result.query.runs_probed == expected.query.runs_probed


def test_a_profile_from_another_profiler_with_equal_parameters_is_compatible():
    detector = ApproximateCoveringDetector(ATTRIBUTES, ORDER)
    profiler = CoveringProfiler(ATTRIBUTES, ORDER)
    profile = profiler.profile([(5, 9), (12, 20)])
    assert detector.compatible_profile(profile)
    assert detector.find_covering_profile(profile).query is None


@pytest.mark.parametrize("merge", [True, False], ids=["merged", "unmerged"])
def test_census_count_is_what_an_exhausted_execution_examines(merge):
    universe = Universe(dims=4, order=5)
    rng = random.Random(9)
    points = [tuple(rng.randrange(universe.side) for _ in range(universe.dims)) for _ in range(8)]
    points += [(0,) * universe.dims, (universe.side - 1,) * universe.dims]
    for budget in (1, 64, 65, 2_000):
        empty = ApproximateDominanceIndex(universe=universe, cube_budget=budget)
        for epsilon in (0.0, 0.05, 0.3):
            for point in points:
                plan = build_dominance_plan(
                    universe, point, epsilon=epsilon, cube_budget=budget, merge_adjacent_runs=merge
                )
                assert plan.materialised_steps() == 0
                assert 1 <= plan.cubes <= budget
                result = empty.execute_plan(plan)
                assert result.cubes_examined == plan.cubes
                assert result.termination == plan.final_termination
