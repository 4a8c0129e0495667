"""The paper's figures, theorems and ablations, as deterministic tables.

FIG1 (runs per rectangle under the Hilbert vs the Z curve), FIG2 (the
256×256 vs 257×257 query regions), THM3.1 (the ε-approximate cost stops
growing with the region), LEM3.2 (truncation keeps a 1 − ε share of the
volume), THM4.1 (the exhaustive cost on the adversarial family), E-DIM (runs
probed vs attributes and aspect ratio), E-RECALL (covering recall vs ε and
at the detector's default budget), E-CURVE (key runs per curve) and the
run-merging ablation.  No table carries a timing.  From the repository
root::

    python3 experiments/paper.py

rewrites the ten tables (``<name>.txt`` and ``BENCH_<name>.json``) in
``benchmarks/results/`` in place, then asserts the paper's claims on them.
"""

from __future__ import annotations

import pathlib
import random
import statistics
import sys
from typing import Dict, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.reporting import ResultTable  # noqa: E402
from repro.baselines.linear_scan import LinearScanCoveringDetector  # noqa: E402
from repro.baselines.probabilistic import ProbabilisticCoveringDetector  # noqa: E402
from repro.core.approx_dominance import ApproximateDominanceIndex  # noqa: E402
from repro.core.bounds import (  # noqa: E402
    adversarial_rectangle,
    theorem31_run_bound,
    theorem41_lower_bound,
)
from repro.core.covering import (  # noqa: E402
    DEFAULT_CUBE_BUDGET,
    DEFAULT_EPSILON,
    ApproximateCoveringDetector,
    CoveringProfiler,
)
from repro.core.decomposition import (  # noqa: E402
    count_cubes_extremal,
    decompose_rectangle,
    greedy_decomposition,
    level_census,
    truncation_bits,
)
from repro.geometry.rect import ExtremalRectangle, Rectangle  # noqa: E402
from repro.geometry.universe import Universe  # noqa: E402
from repro.obs.exposition import write_bench_json  # noqa: E402
from repro.pubsub.subscription import Subscription  # noqa: E402
from repro.sfc.gray import GrayCodeCurve  # noqa: E402
from repro.sfc.hilbert import HilbertCurve  # noqa: E402
from repro.sfc.runs import RunProfile, merge_key_ranges  # noqa: E402
from repro.sfc.zorder import ZOrderCurve  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    SubscriptionWorkload,
    mixed_width_workload,
    random_extremal_lengths,
)
from repro.workloads.scenarios import sensor_network_scenario, stock_market_scenario  # noqa: E402

RESULTS = ROOT / "benchmarks" / "results"
FIG1_ORDER = 6
#: ``(order, side bit lengths)``.
THM31 = (16, (6, 8, 10, 12, 14, 16))
#: ``(dims, order, trials)``.
LEM32 = (4, 16, 50)
#: ``(order, gammas)``.
THM41 = (14, (3, 4, 5, 6, 7, 8))
#: ``(attribute counts, aspect skews, stored, queries)``.
DIMENSIONALITY = ((1, 2, 3), (0, 2, 4), 400, 25)
#: ``(stored, queries, epsilons, cube budget)``.
RECALL = (600, 60, (0.05, 0.25), 100_000)
#: ``(stored sizes, queries)``: both sides of the profile's compare / probe crossover.
PRODUCT_BUDGET = ((20, 200, 3_000), 100)
CURVE_RECTANGLES = 250
#: ``(stored points, queries)``.
RUN_MERGING = (2_000, 40)
LEM32_SEED, DIMENSIONALITY_SEED, RECALL_SEED, CURVE_SEED = 1, 17, 5, 31
#: The run-merging ablation's stored points and its queries.
RUN_MERGING_SEEDS = (1, 11)


def fig1(order: int) -> ResultTable:
    """FIG1: runs needed for the same rectangle under the Hilbert vs the Z curve.

    ``figure-1`` is the paper's instance: an Sx × Sy rectangle that straddles
    a standard-cube boundary needs three runs on the Z curve but only two on
    the Hilbert curve.  The other instances show the same Hilbert ≤ Z
    tendency on larger regions.
    """
    table = ResultTable("FIG1: runs per curve for the same rectangle")
    universe = Universe(dims=2, order=order)
    z, h = ZOrderCurve(universe), HilbertCurve(universe)
    side = universe.side
    instances = {
        "figure-1": Rectangle((0, 1), (1, 2)),
        "wide-strip": Rectangle((0, side // 4), (side - 1, side // 2 - 1)),
        "offset-square": Rectangle((side // 4, side // 4), (3 * side // 4 - 1, 3 * side // 4 - 1)),
    }
    for name, rect in instances.items():
        table.add(
            instance=name,
            width=rect.side_lengths[0],
            height=rect.side_lengths[1],
            z_runs=z.brute_force_runs(rect),
            hilbert_runs=h.brute_force_runs(rect),
        )
    return table


def fig2() -> ResultTable:
    """FIG2: the 256×256 vs 257×257 extremal query regions of the paper's Figure 2."""
    table = ResultTable("FIG2: runs for the two example point-dominance queries (Z curve)")
    universe = Universe(dims=2, order=9)
    z = ZOrderCurve(universe)
    for lengths in [(256, 256), (257, 257)]:
        region = ExtremalRectangle(universe, lengths)
        profile = RunProfile.from_cubes(z, greedy_decomposition(region))
        smallest_fraction = (
            profile.run_volumes[-1] / profile.total_volume if profile.run_volumes else 0.0
        )
        table.add(
            region=f"{lengths[0]}x{lengths[1]}",
            cubes=profile.num_cubes,
            runs=profile.num_runs,
            largest_run_fraction=round(profile.largest_run_fraction, 6),
            smallest_run_fraction=round(smallest_fraction, 6),
        )
    return table


def thm31(order: int, side_bit_lengths: Sequence[int]) -> ResultTable:
    """THM3.1: approximate-query cost is independent of the query side length.

    For each side bit-length ``b``, an all-ones extremal rectangle (the worst
    case of Lemma 3.6): the cubes the approximate search touches (classes
    down to the ``1 − ε`` coverage level) against the exhaustive cube count
    and the analytic Theorem 3.1 bound.
    """
    dims, epsilon, alpha = 4, 0.05, 0
    table = ResultTable("THM3.1: approximate vs exhaustive cube counts as the region grows")
    universe = Universe(dims=dims, order=order)
    m = truncation_bits(dims, epsilon)
    bound = theorem31_run_bound(dims, alpha, epsilon)
    for bits in side_bit_lengths:
        if bits > order or bits - alpha < 1:
            continue
        long_side = (1 << bits) - 1
        short_side = (1 << (bits - alpha)) - 1
        region = ExtremalRectangle(universe, tuple([long_side] * (dims - 1) + [short_side]))
        target = (1 - epsilon) * region.volume
        approx_cubes = 0
        covered = 0
        for cls in level_census(region):
            if covered >= target:
                break
            approx_cubes += cls.num_cubes
            covered = cls.cumulative_volume
        table.add(
            side_bits=bits,
            shortest_side=short_side,
            epsilon=epsilon,
            truncation_bits=m,
            approx_cubes=approx_cubes,
            exhaustive_cubes=count_cubes_extremal(region),
            theorem31_bound=bound,
            coverage=round(covered / region.volume, 6),
        )
    return table


def lem32(dims: int, order: int, trials: int) -> ResultTable:
    """LEM3.2: measured volume retained by truncation vs the 1 − ε guarantee."""
    table = ResultTable("LEM3.2: volume coverage of the truncated query region")
    universe = Universe(dims=dims, order=order)
    for epsilon in (0.2, 0.1, 0.05, 0.01):
        m = truncation_bits(dims, epsilon)
        worst = 1.0
        total = 0.0
        for trial in range(trials):
            lengths = random_extremal_lengths(dims, order, alpha=0, seed=LEM32_SEED + trial)
            region = ExtremalRectangle(universe, lengths)
            fraction = region.truncated(m).volume / region.volume
            worst = min(worst, fraction)
            total += fraction
        table.add(
            epsilon=epsilon,
            truncation_bits=m,
            guaranteed_fraction=round(1 - epsilon, 6),
            mean_measured_fraction=round(total / trials, 6),
            worst_measured_fraction=round(worst, 6),
        )
    return table


def thm41(order: int, gammas: Sequence[int]) -> ResultTable:
    """THM4.1: exhaustive run count on the adversarial rectangle vs the lower bound."""
    dims, alpha = 2, 1
    table = ResultTable("THM4.1: exhaustive cost grows with the shortest side (adversarial family)")
    universe = Universe(dims=dims, order=order)
    z = ZOrderCurve(universe)
    for gamma in gammas:
        if gamma + alpha > order:
            continue
        region = adversarial_rectangle(universe, alpha, gamma)
        shortest = min(region.lengths)
        profile = RunProfile.from_cubes(z, greedy_decomposition(region))
        table.add(
            gamma=gamma,
            shortest_side=shortest,
            exhaustive_runs=profile.num_runs,
            exhaustive_cubes=profile.num_cubes,
            theorem41_lower_bound=theorem41_lower_bound(dims, alpha, shortest),
            approx_bound_eps_0_05=theorem31_run_bound(dims, alpha, 0.05),
        )
    return table


def dimensionality(
    attribute_counts: Sequence[int], alphas: Sequence[int], stored: int, queries: int
) -> ResultTable:
    """E-DIM: query cost as dimensionality and aspect ratio grow."""
    epsilon, order = 0.2, 8
    table = ResultTable("E-DIM: runs probed vs attributes and aspect ratio")
    for attributes in attribute_counts:
        for alpha in alphas:
            workload = SubscriptionWorkload(
                attributes=attributes,
                attribute_order=order,
                width_fraction=0.25,
                aspect_skew=alpha,
                seed=DIMENSIONALITY_SEED,
            )
            stored_specs = workload.generate(stored, prefix="stored")
            query_specs = workload.generate(queries, prefix="query")
            detector = ApproximateCoveringDetector(
                attributes=attributes, attribute_order=order, epsilon=epsilon, cube_budget=25_000
            )
            for spec in stored_specs:
                detector.add_subscription(spec.sub_id, spec.ranges)
            runs_total = 0
            mean_alpha = 0.0
            for spec in query_specs:
                result = detector.find_covering(spec.ranges)
                runs_total += result.query.runs_probed
                mean_alpha += result.query.aspect_ratio
            table.add(
                attributes=attributes,
                dominance_dims=2 * attributes,
                requested_aspect_skew=alpha,
                mean_query_aspect_ratio=round(mean_alpha / queries, 2),
                mean_runs_probed=round(runs_total / queries, 2),
                theorem31_bound=theorem31_run_bound(2 * attributes, alpha, epsilon),
            )
    return table


def recall(stored: int, queries: int, epsilons: Sequence[float], cube_budget: int) -> ResultTable:
    """E-RECALL: fraction of truly-covered queries detected, per strategy and ε.

    Two workload regimes: ``wide-covers``, where a share of broad stored
    subscriptions makes covers much wider than the query (the regime the
    paper's optimisation targets; recall stays near 1 for moderate ε), and
    ``narrow-covers``, where covers are only barely wider and sit in the
    corner of the dominance region the approximate search visits last
    (recall degrades: the cost of approximation).
    """
    attributes, order, seed = 2, 10, RECALL_SEED
    table = ResultTable("E-RECALL: covering detection recall vs epsilon")
    regimes = {
        "wide-covers": dict(narrow_fraction=0.85, narrow_width=0.12, wide_width=0.55),
        "narrow-covers": dict(narrow_fraction=1.0, narrow_width=0.3, wide_width=0.3),
    }
    query_specs = SubscriptionWorkload(
        attributes=attributes, attribute_order=order, width_fraction=0.12, seed=seed + 7
    ).generate(queries, prefix="query")

    for regime, params in regimes.items():
        stored_specs = mixed_width_workload(
            attributes, order, stored, seed=seed, prefix="stored", **params
        )
        linear = LinearScanCoveringDetector(attributes, order)
        probabilistic = ProbabilisticCoveringDetector(attributes, order, samples=8, seed=seed)
        detector = ApproximateCoveringDetector(
            attributes=attributes, attribute_order=order, epsilon=0.05, cube_budget=cube_budget
        )
        for spec in stored_specs:
            linear.add_subscription(spec.sub_id, spec.ranges)
            probabilistic.add_subscription(spec.sub_id, spec.ranges)
            detector.add_subscription(spec.sub_id, spec.ranges)

        truly_covered = [s for s in query_specs if linear.find_covering(s.ranges) is not None]
        uncovered = [s for s in query_specs if linear.find_covering(s.ranges) is None]
        if not truly_covered:
            table.add(regime=regime, note="no covered queries in this draw")
            continue

        for epsilon in epsilons:
            detected = sum(
                1
                for spec in truly_covered
                if detector.find_covering(spec.ranges, epsilon=epsilon).covered
            )
            table.add(
                regime=regime,
                strategy=f"sfc-approx(ε={epsilon})",
                covered_queries=len(truly_covered),
                detected=detected,
                recall=round(detected / len(truly_covered), 4),
                false_positives=0,
            )
        # The probabilistic baseline never misses a true cover among the
        # candidates it evaluates, but may wrongly report one: its false
        # positives would lose events, which is why no broker routes with it.
        detected = sum(
            1 for spec in truly_covered if probabilistic.find_covering(spec.ranges) is not None
        )
        false_pos = sum(
            1 for spec in uncovered if probabilistic.find_covering(spec.ranges) is not None
        )
        table.add(
            regime=regime,
            strategy="probabilistic(samples=8)",
            covered_queries=len(truly_covered),
            detected=detected,
            recall=round(detected / len(truly_covered), 4),
            false_positives=false_pos,
        )
        table.add(
            regime=regime,
            strategy="linear-scan(exact)",
            covered_queries=len(truly_covered),
            detected=len(truly_covered),
            recall=1.0,
            false_positives=0,
        )
    return table


def product_budget_recall(stored_sizes: Sequence[int], queries: int) -> ResultTable:
    """E-RECALL at the detector's defaults (ε = 0.05, 2,000 cubes), per scenario and link size.

    Recall of the plan executed on its own, the ε it actually delivers when
    the budget ends it, and recall of the detector's profile entry point
    (``find_covering_profile``, what a broker link ran before links moved to
    an exact scan), on the stock and sensor scenarios.
    """
    table = ResultTable(
        f"E-RECALL at the product budget (ε={DEFAULT_EPSILON}, {DEFAULT_CUBE_BUDGET} cubes)"
    )
    for build in (stock_market_scenario, sensor_network_scenario):
        scenario = build(
            num_subscriptions=max(stored_sizes) + queries, num_events=0, seed=RECALL_SEED
        )
        schema = scenario.schema
        ranges = [
            Subscription(schema, constraints, sub_id=i).ranges
            for i, constraints in enumerate(scenario.subscriptions)
        ]
        query_ranges = ranges[-queries:]
        # What a schedule delivers when nothing ends it early: each query's
        # plan run against an empty detector.
        empty = ApproximateCoveringDetector(schema.num_attributes, schema.order)
        exhausted = [empty.find_covering(query).query for query in query_ranges]
        alpha = int(statistics.median(result.aspect_ratio for result in exhausted))
        for stored in stored_sizes:
            detector = ApproximateCoveringDetector(schema.num_attributes, schema.order)
            linear = LinearScanCoveringDetector(schema.num_attributes, schema.order)
            for sub_id, stored_ranges in enumerate(ranges[:stored]):
                detector.add_subscription(sub_id, stored_ranges)
                linear.add_subscription(sub_id, stored_ranges)
            covered = [query for query in query_ranges if linear.find_covering(query) is not None]
            plan_alone = [detector.find_covering(query) for query in covered]
            # The profile entry point, profiles from one profiler (no broker
            # takes this path: a link scans what it forwarded).
            profiler = CoveringProfiler(schema.num_attributes, schema.order)
            profiled = [
                detector.find_covering_profile(profiler.profile(query)) for query in covered
            ]
            for result, query in zip(plan_alone + profiled, covered + covered):
                assert detector.verify_witness(result, query)
            table.add(
                scenario=scenario.name,
                stored=stored,
                covered_queries=len(covered),
                plan_alone_recall=round(sum(r.covered for r in plan_alone) / len(covered), 4),
                profile_recall=round(sum(r.covered for r in profiled) / len(covered), 4),
                profile_compared_share=round(
                    sum(r.query is None for r in profiled) / len(covered), 4
                ),
                median_plan_cubes=int(statistics.median(r.cubes_examined for r in exhausted)),
                delivered_epsilon=round(
                    1.0 - statistics.median(r.coverage for r in exhausted), 4
                ),
                median_alpha=alpha,
                thm31_cubes_for_epsilon=(
                    f"{theorem31_run_bound(2 * schema.num_attributes, alpha, DEFAULT_EPSILON):.1e}"
                ),
            )
    return table


def curve_ablation(rectangles: int) -> ResultTable:
    """E-CURVE: the Fig. 1 claim at workload scale, under Z-order vs Hilbert vs Gray.

    Exact run counts of a seeded family of 2-D rectangles on a 64 × 64 grid
    under each curve (the per-curve analogue of :func:`fig1`'s three
    hand-picked instances).  The routing stack keys on the Z curve alone, so
    no rows compare curves end to end.
    """
    table = ResultTable("E-CURVE: key runs per space filling curve (Fig. 1-style rectangles)")
    universe = Universe(dims=2, order=6)
    specs = SubscriptionWorkload(
        attributes=2, attribute_order=6, width_fraction=0.4, seed=CURVE_SEED + 2
    ).generate(rectangles, prefix="fig1")
    rects = [
        Rectangle(tuple(lo for lo, _ in spec.ranges), tuple(hi for _, hi in spec.ranges))
        for spec in specs
    ]
    cube_partitions = [decompose_rectangle(universe, rect) for rect in rects]
    for curve_cls in (ZOrderCurve, HilbertCurve, GrayCodeCurve):
        curve = curve_cls(universe)
        run_counts = [
            len(merge_key_ranges(curve.cube_key_range(cube) for cube in cubes))
            for cubes in cube_partitions
        ]
        table.add(
            phase="runs",
            scenario="fig1-style",
            curve=curve.kind,
            rectangles=len(rects),
            total_runs=sum(run_counts),
            mean_runs=round(sum(run_counts) / len(run_counts), 2),
            max_runs=max(run_counts),
        )
    return table


def run_merging(stored: int, queries: int) -> ResultTable:
    """Ablation: merging adjacent runs before probing (Lemma 3.1: runs ≤ cubes)
    against probing every cube on its own, in the approximate query at ε = 0.2.
    Both answer identically; the table records the work difference."""
    universe = Universe(dims=4, order=10)
    points_seed, queries_seed = RUN_MERGING_SEEDS
    table = ResultTable("Ablation: run merging inside the approximate query")
    rng = random.Random(queries_seed)
    query_points = [tuple(rng.randint(0, 1023) for _ in range(4)) for _ in range(queries)]
    for variant, merge in (("merge-adjacent-runs", True), ("probe-each-cube", False)):
        index = ApproximateDominanceIndex(universe, merge_adjacent_runs=merge, cube_budget=20_000)
        points = random.Random(points_seed)
        for i in range(stored):
            index.insert(i, tuple(points.randint(0, 1023) for _ in range(4)))
        results = [index.query(point, epsilon=0.2) for point in query_points]
        table.add(
            variant=variant,
            runs_probed=sum(r.runs_probed for r in results),
            covers_found=sum(int(r.found) for r in results),
        )
    return table


def check(tables: Dict[str, ResultTable]) -> None:
    """The paper's claims, one block per table."""
    fig1_rows = {row["instance"]: row for row in tables["fig1_runs_hilbert_vs_z"].rows}
    assert fig1_rows["figure-1"]["z_runs"] == 3 and fig1_rows["figure-1"]["hilbert_runs"] == 2

    fig2_rows = {row["region"]: row for row in tables["fig2_query_examples"].rows}
    assert fig2_rows["256x256"]["runs"] == 1
    assert fig2_rows["257x257"]["runs"] == 385
    assert fig2_rows["257x257"]["largest_run_fraction"] > 0.99

    # THM3.1: the approximate cost stays under the bound and stops growing
    # with the region, while the exhaustive cost keeps growing.
    thm31_table = tables["thm31_upper_bound"]
    approx = thm31_table.column("approx_cubes")
    exhaustive = thm31_table.column("exhaustive_cubes")
    assert max(approx) <= thm31_table.column("theorem31_bound")[0]
    assert approx[-1] == approx[-2]
    assert exhaustive[-1] > 100 * exhaustive[0]
    assert all(c >= 0.95 for c in thm31_table.column("coverage"))

    for row in tables["lem32_volume_coverage"].rows:
        assert row["worst_measured_fraction"] >= row["guaranteed_fraction"] - 1e-9
        assert row["mean_measured_fraction"] >= row["guaranteed_fraction"] - 1e-9

    # THM4.1: the exhaustive cost meets the lower bound and grows with the
    # shortest side; the approximate bound does not.
    thm41_table = tables["thm41_lower_bound"]
    for row in thm41_table.rows:
        assert row["exhaustive_runs"] >= row["theorem41_lower_bound"]
    runs = thm41_table.column("exhaustive_runs")
    assert runs[-1] > 10 * runs[0]
    assert len(set(thm41_table.column("approx_bound_eps_0_05"))) == 1

    # E-DIM: more attributes, more runs probed; the bound always dominates.
    dim_rows = tables["dimensionality_aspect"].rows
    by_key = {(r["attributes"], r["requested_aspect_skew"]): r for r in dim_rows}
    assert by_key[(2, 0)]["mean_runs_probed"] > by_key[(1, 0)]["mean_runs_probed"]
    assert all(row["mean_runs_probed"] <= row["theorem31_bound"] for row in dim_rows)

    # E-RECALL: the SFC search is sound and finds a substantial share of the
    # true covers in every regime.
    recall_rows = tables["recall_vs_epsilon"].rows
    sfc_rows = [r for r in recall_rows if str(r.get("strategy", "")).startswith("sfc-approx")]
    assert sfc_rows, "expected SFC rows in the recall table"
    assert all(r["false_positives"] == 0 and r["recall"] >= 0.5 for r in sfc_rows)
    exact_rows = [r for r in recall_rows if r.get("strategy") == "linear-scan(exact)"]
    assert all(r["recall"] == 1.0 for r in exact_rows)

    # At the product budget the profile entry point (compare or execute)
    # never finds fewer covers than the plan alone, a compared profile is
    # searched completely, and both sides of the crossover are in the table.
    budget_rows = tables["recall_at_product_budget"].rows
    for row in budget_rows:
        assert row["profile_recall"] >= row["plan_alone_recall"]
        if row["profile_compared_share"] == 1.0:
            assert row["profile_recall"] == 1.0
    assert {row["profile_compared_share"] for row in budget_rows} >= {0.0, 1.0}

    # E-CURVE: Fig. 1 at workload scale, Hilbert needs fewer runs than Z.
    curve_rows = {row["curve"]: row for row in tables["curve_ablation"].rows}
    assert all(row["phase"] == "runs" for row in curve_rows.values())
    assert set(curve_rows) == {"zorder", "hilbert", "gray"}
    assert curve_rows["hilbert"]["total_runs"] < curve_rows["zorder"]["total_runs"], curve_rows

    merged, unmerged = tables["ablation_run_merging"].rows
    assert merged["covers_found"] == unmerged["covers_found"]
    assert merged["runs_probed"] <= unmerged["runs_probed"]


def main() -> None:
    tables = {
        "fig1_runs_hilbert_vs_z": fig1(FIG1_ORDER),
        "fig2_query_examples": fig2(),
        "thm31_upper_bound": thm31(*THM31),
        "lem32_volume_coverage": lem32(*LEM32),
        "thm41_lower_bound": thm41(*THM41),
        "dimensionality_aspect": dimensionality(*DIMENSIONALITY),
        "recall_vs_epsilon": recall(*RECALL),
        "recall_at_product_budget": product_budget_recall(*PRODUCT_BUDGET),
        "curve_ablation": curve_ablation(CURVE_RECTANGLES),
        "ablation_run_merging": run_merging(*RUN_MERGING),
    }
    for name, table in tables.items():
        print(table.to_text(), end="\n\n")
        (RESULTS / f"{name}.txt").write_text(table.to_text() + "\n")
        write_bench_json(RESULTS / f"BENCH_{name}.json", table.rows)
    check(tables)


if __name__ == "__main__":
    main()
