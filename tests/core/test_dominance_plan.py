"""Same answers, less work: the table-driven plan against the searches it replaced.

``reference_dominance`` keeps the previous implementations — the per-cube
``PlanStep`` generator and the interleaved decompose-and-probe search.  These
tests pin the per-class probe tables, the probe loop that executes them and
``query()`` itself to those references field for field, and pin what the
rewrite was for: only the classes an execution reaches are built, and a built
plan is no larger than the step tuples it replaced.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from reference_dominance import plan_steps, reference_plan_steps, reference_query
from repro.core.approx_dominance import (
    ApproximateDominanceIndex,
    TerminationReason,
    build_dominance_plan,
)
from repro.core.covering import DEFAULT_CUBE_BUDGET, DEFAULT_EPSILON
from repro.geometry.universe import Universe

EPSILONS = (0.0, 0.05, 0.3)
BUDGETS = (1, 63, 64, 65, 2000)


def corner_biased_point(rng, universe):
    """A query point whose coordinates favour the edges (long and unit-length sides)."""
    top = universe.max_coordinate
    return tuple(
        rng.choice((0, top, rng.randint(0, top), rng.randint(0, top)))
        for _ in range(universe.dims)
    )


# ------------------------------------------------------------- plan producer
@pytest.mark.parametrize("order", [4, 8, 10])
@pytest.mark.parametrize("dims", [2, 4, 6])
def test_plan_steps_equal_the_generator_producer(dims, order):
    """Step for step: ranges, cubes, volume, classes, stop — and the final termination.

    Covers the cut-offs that shape a schedule: a budget inside a batch, on a
    batch boundary (the empty ``stop`` step) and on a class boundary, and a
    coverage target met mid-class.
    """
    universe = Universe(dims, order)
    rng = random.Random(dims * 100 + order)
    for _ in range(4):
        point = corner_biased_point(rng, universe)
        for epsilon in EPSILONS:
            for budget in BUDGETS:
                plan = build_dominance_plan(universe, point, epsilon=epsilon, cube_budget=budget)
                steps, final = reference_plan_steps(
                    universe, point, epsilon=epsilon, cube_budget=budget
                )
                assert plan_steps(plan) == steps
                assert plan.final_termination == final
                assert plan.materialised_steps() == len(steps)


def test_unmerged_plan_keeps_grid_order():
    universe = Universe(3, 5)
    rng = random.Random(2)
    for _ in range(10):
        point = corner_biased_point(rng, universe)
        for budget in (64, 200):
            plan = build_dominance_plan(
                universe, point, epsilon=0.1, cube_budget=budget, merge_adjacent_runs=False
            )
            steps, final = reference_plan_steps(
                universe, point, epsilon=0.1, cube_budget=budget, merge_adjacent_runs=False
            )
            assert plan_steps(plan) == steps and plan.final_termination == final


# ------------------------------------------------------------ probe loop
def populate(index, points, shared_cell):
    """Leave ``index`` holding every kind of entry a probe must see through.

    Keys whose cells were emptied, a key removed and inserted again (its
    item at the end of its bucket), and several items in one cell.
    """
    first, second = points[: len(points) // 2], points[len(points) // 2 :]
    for i, point in enumerate(first):
        index.insert(("a", i), point)
    for i in range(0, len(first), 3):
        index.remove(("a", i))
    if first:
        index.insert(("a", 0), first[0])  # inserted again
    for i, point in enumerate(second):
        index.insert(("b", i), point)
    for i in range(3):
        index.insert(("shared", i), shared_cell)
    index.remove(("shared", 0))


@st.composite
def populated_query(draw):
    dims = draw(st.sampled_from((2, 3, 4)))
    order = draw(st.sampled_from((3, 4, 5)))
    universe = Universe(dims, order)
    cell = st.tuples(*[st.integers(0, universe.max_coordinate)] * dims)
    return (
        universe,
        draw(st.lists(cell, max_size=24)),
        draw(cell),
        draw(cell),
        draw(st.sampled_from(EPSILONS)),
        draw(st.sampled_from(BUDGETS)),
    )


@pytest.mark.parametrize("merge", [True, False], ids=["merged", "unmerged"])
@settings(deadline=None)
@given(case=populated_query())
def test_query_equals_the_interleaved_search(merge, case):
    """``query()`` — each plan table's ranges probed in order up to the first
    hit — returns the interleaved search's whole result, and counts the same
    range probes.

    The index is small next to its classes; the ballast copy below holds
    more items than any class has ranges.  Both must equal the reference,
    with adjacent cubes merged into one range or probed one by one.
    """
    universe, points, shared_cell, query, epsilon, budget = case
    index = ApproximateDominanceIndex(universe, cube_budget=budget, merge_adjacent_runs=merge)
    populate(index, points, shared_cell)

    stats = index.array.stats
    before = stats.range_probes
    result = index.query(query, epsilon=epsilon)
    after_query = stats.range_probes
    expected = reference_query(index, query, epsilon)
    assert result == expected
    assert after_query - before == result.runs_probed
    assert stats.range_probes - after_query == result.runs_probed

    # A shared plan executed a second time (now fully or partly built) agrees.
    plan = index.plan(query, epsilon)
    assert index.execute_plan(plan) == expected
    assert index.execute_plan(plan) == expected

    # Items that cannot dominate the query lie in no probe range: they change
    # no answer and no probe count, however many there are (more items than
    # any class has ranges).
    if query[0] > 0:
        for i in range(budget + 1):
            index.insert(("ballast", i), (0,) + query[1:])
        before = stats.range_probes
        assert index.query(query, epsilon=epsilon) == expected
        assert stats.range_probes - before == expected.runs_probed


# --------------------------------------------------------------- laziness
def test_a_witness_in_the_first_class_builds_only_that_class():
    """A six-digit budget schedules thousands of batches; a check that hits in
    the largest cubes must not enumerate them."""
    universe = Universe(2, 10)
    query = (1, 1)
    index = ApproximateDominanceIndex(universe, epsilon=0.0, cube_budget=1_000_000)
    index.insert("top", (600, 700))  # inside the one side-512 cube of the first class
    plan = index.plan(query)
    assert plan.materialised_steps() == 0
    result = index.execute_plan(plan)
    assert result.found and result.classes_examined == 1
    assert plan.materialised_steps() == 1

    # The same plan against an index without a witness builds the rest.
    steps, _ = reference_plan_steps(universe, query, epsilon=0.0, cube_budget=1_000_000)
    assert len(steps) > 10
    empty = ApproximateDominanceIndex(universe, epsilon=0.0, cube_budget=1_000_000)
    assert empty.execute_plan(plan).termination == TerminationReason.REGION_EXHAUSTED
    assert plan.materialised_steps() == len(steps)


# ----------------------------------------------------------------- memory
def test_materialised_plan_is_no_larger_than_the_step_tuples():
    """The tables replace the ``PlanStep`` tuples; they do not sit beside them.

    A plan at the detector's defaults over the 6-dimensional universe of a 3-attribute
    schema (up to 2,000 probe ranges) took ~135 bytes per range as a list of
    steps holding ``(lo, hi)`` tuples; the tables take under 100.
    """
    universe = Universe(6, 10)

    def traced(build):
        gc.collect()
        tracemalloc.start()
        try:
            kept = build()
            return kept, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    def materialised(point):
        plan = build_dominance_plan(
            universe, point, epsilon=DEFAULT_EPSILON, cube_budget=DEFAULT_CUBE_BUDGET
        )
        for _ in plan.tables():
            pass
        return plan

    for point in [(867, 238, 1023, 1023, 1023, 1023), (381, 192, 914, 621, 290, 185)]:
        plan, table_bytes = traced(lambda: materialised(point))
        (steps, _), step_bytes = traced(
            lambda: reference_plan_steps(
                universe, point, epsilon=DEFAULT_EPSILON, cube_budget=DEFAULT_CUBE_BUDGET
            )
        )
        ranges = sum(len(step.ranges) for step in steps)
        assert sum(len(table.los) for table in plan.tables()) == ranges
        assert table_bytes <= step_bytes
        assert table_bytes <= 100 * ranges + 4096
