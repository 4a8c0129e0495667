"""E-RECALL — covering-detection recall vs ε and workload regime.

Paper reference: the "approximate search finds most existing covering
relations" argument of Section 1 (Problem 2 discussion).  Recall is measured
only over queries that truly have a cover (ground truth from a linear scan),
for two workload regimes: covers much wider than the query (the regime the
optimisation targets) and covers barely wider than the query (the worst case
for a volume-based approximation).  The probabilistic baseline's false
positives — suppressions that would lose events — are reported alongside.

A second table reports what the same search delivers at the *product* budget
(``IndexConfig()``: ε = 0.05, 2,000 cubes) on the stock and sensor scenarios:
recall of the plan executed on its own, the ε it actually delivers when the
budget ends it, and recall of the routing entry point
(``find_covering_profile``) at 20 / 200 / 3,000 stored subscriptions — both
sides of its compare / probe crossover.
"""

from __future__ import annotations

import statistics

from repro.analysis.experiments import run_recall_experiment
from repro.analysis.reporting import ResultTable
from repro.baselines.linear_scan import LinearScanCoveringDetector
from repro.core.bounds import theorem31_run_bound
from repro.core.covering import ApproximateCoveringDetector
from repro.index.config import IndexConfig
from repro.pubsub.subscription import Subscription
from repro.workloads.scenarios import sensor_network_scenario, stock_market_scenario


def test_recall_vs_epsilon(run_once, record_table):
    table = run_once(
        run_recall_experiment,
        attributes=2,
        order=10,
        num_subscriptions=600,
        num_queries=60,
        epsilons=(0.05, 0.25),
        cube_budget=100_000,
    )
    record_table("recall_vs_epsilon", table)
    sfc_rows = [r for r in table.rows if str(r.get("strategy", "")).startswith("sfc-approx")]
    assert sfc_rows, "expected SFC rows in the recall table"
    # The SFC detector is sound: it never claims covering where none exists.
    assert all(r["false_positives"] == 0 for r in sfc_rows)
    # It detects a substantial share of the true covers in every regime.
    assert all(r["recall"] >= 0.5 for r in sfc_rows)
    exact_rows = [r for r in table.rows if r.get("strategy") == "linear-scan(exact)"]
    assert all(r["recall"] == 1.0 for r in exact_rows)


def product_budget_recall(stored_sizes=(20, 200, 3_000), num_queries=100, seed=5) -> ResultTable:
    """Recall and delivered ε of the covering search at ``IndexConfig()``, per scenario and link size."""
    config = IndexConfig()
    table = ResultTable(
        f"E-RECALL at the product budget (ε={config.epsilon}, {config.cube_budget} cubes)"
    )
    for build in (stock_market_scenario, sensor_network_scenario):
        scenario = build(
            num_subscriptions=max(stored_sizes) + num_queries, num_events=0, seed=seed
        )
        schema = scenario.schema
        ranges = [
            Subscription(schema, constraints, sub_id=i).ranges
            for i, constraints in enumerate(scenario.subscriptions)
        ]
        queries = ranges[-num_queries:]
        # What a schedule delivers when nothing ends it early: run each query's
        # plan against an empty detector.
        empty = ApproximateCoveringDetector(schema.num_attributes, schema.order, config=config)
        exhausted = [empty.find_covering(query).query for query in queries]
        alpha = int(statistics.median(result.aspect_ratio for result in exhausted))
        for stored in stored_sizes:
            detector = ApproximateCoveringDetector(
                schema.num_attributes, schema.order, config=config
            )
            linear = LinearScanCoveringDetector(schema.num_attributes, schema.order)
            for sub_id, stored_ranges in enumerate(ranges[:stored]):
                detector.add_subscription(sub_id, stored_ranges)
                linear.add_subscription(sub_id, stored_ranges)
            covered = [query for query in queries if linear.find_covering(query) is not None]
            plan_alone = [detector.find_covering(query) for query in covered]
            routed = [
                detector.find_covering_profile(detector.profile(query)) for query in covered
            ]
            for result, query in zip(plan_alone + routed, covered + covered):
                assert detector.verify_witness(result, query)
            table.add(
                scenario=scenario.name,
                stored=stored,
                covered_queries=len(covered),
                plan_alone_recall=round(sum(r.covered for r in plan_alone) / len(covered), 4),
                routing_recall=round(sum(r.covered for r in routed) / len(covered), 4),
                routing_compared_share=round(
                    sum(r.query is None for r in routed) / len(covered), 4
                ),
                median_plan_cubes=int(statistics.median(r.cubes_examined for r in exhausted)),
                delivered_epsilon=round(
                    1.0 - statistics.median(r.coverage for r in exhausted), 4
                ),
                median_alpha=alpha,
                thm31_cubes_for_epsilon=(
                    f"{theorem31_run_bound(2 * schema.num_attributes, alpha, config.epsilon):.1e}"
                ),
            )
    return table


def test_recall_at_product_budget(run_once, record_table):
    table = run_once(product_budget_recall)
    record_table("recall_at_product_budget", table)
    for row in table.rows:
        # Sound on both sides, and the join never finds fewer covers than the plan alone.
        assert row["routing_recall"] >= row["plan_alone_recall"]
        # A link that is compared is searched completely.
        if row["routing_compared_share"] == 1.0:
            assert row["routing_recall"] == 1.0
    # Both sides of the crossover are in the table.
    assert {row["routing_compared_share"] for row in table.rows} >= {0.0, 1.0}
