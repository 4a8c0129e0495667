"""E-COST and E-THROUGHPUT: what a covering query costs, approximate vs exhaustive.

E-COST sweeps ε (ε = 0 is the exhaustive search) on a single-attribute
workload where the exhaustive cost is measurable, and reports runs probed,
queries per second and recall: the headline claim of the paper's Sections 1
and 3, that an ε-approximate search touches far fewer runs than an
exhaustive one while still finding most covers.  E-THROUGHPUT (Section 1.3's
comparison) times the approximate SFC detector, the linear scan, a k-d tree
and a static range tree as the stored set grows, and reports the range
tree's storage.  On this workload every query has a cover and the scan stops
at the first one, so its work per query is set by where that cover lands in
the arrival order, not by the table size; neither it nor ``linear_qps`` is
asserted on.  From the repository root::

    python3 experiments/covering_cost.py           # a few seconds
    python3 experiments/covering_cost.py --smoke   # tiny sizes, writes nothing

At full size it rewrites ``approx_vs_exhaustive.txt`` and
``index_throughput.txt`` (and their ``BENCH_*.json``) in
``benchmarks/results/``, then asserts the claims.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.reporting import ResultTable  # noqa: E402
from repro.baselines.linear_scan import LinearScanCoveringDetector  # noqa: E402
from repro.core.covering import ApproximateCoveringDetector  # noqa: E402
from repro.index.kdtree import KDTree  # noqa: E402
from repro.index.range_tree import RangeTree  # noqa: E402
from repro.obs.exposition import write_bench_json  # noqa: E402
from repro.workloads.generators import SubscriptionWorkload, mixed_width_workload  # noqa: E402

RESULTS = ROOT / "benchmarks" / "results"
#: ``((order, stored, queries, epsilons), (stored sizes, queries))``.
FULL = ((12, 2_000, 200, (0.0, 0.01, 0.05, 0.1, 0.2)), ((500, 1_000, 2_000), 60))
SMOKE = ((10, 400, 60, (0.0, 0.05)), ((200, 400), 60))
COST_SEED, THROUGHPUT_SEED = 3, 23


def approx_vs_exhaustive(
    order: int, stored: int, queries: int, epsilons: Sequence[float]
) -> ResultTable:
    """E-COST: runs probed and queries per second, per ε, plus a linear-scan row."""
    attributes = 1
    table = ResultTable("E-COST: covering-query cost vs epsilon")
    workload = SubscriptionWorkload(
        attributes=attributes, attribute_order=order, width_fraction=0.2, seed=COST_SEED
    )
    stored_specs = workload.generate(stored, prefix="stored")
    query_specs = workload.generate(queries, prefix="query")

    detector = ApproximateCoveringDetector(
        attributes=attributes, attribute_order=order, epsilon=0.05, cube_budget=200_000
    )
    linear = LinearScanCoveringDetector(attributes, order)
    for spec in stored_specs:
        detector.add_subscription(spec.sub_id, spec.ranges)
        linear.add_subscription(spec.sub_id, spec.ranges)
    covered_queries = sum(
        1 for spec in query_specs if linear.find_covering(spec.ranges) is not None
    )

    for epsilon in epsilons:
        runs_total = 0
        found = 0
        start = time.perf_counter()
        for spec in query_specs:
            result = detector.find_covering(spec.ranges, epsilon=epsilon)
            runs_total += result.query.runs_probed
            if result.covered:
                found += 1
        elapsed = time.perf_counter() - start
        table.add(
            epsilon=epsilon,
            mode="exhaustive" if epsilon == 0.0 else "approximate",
            mean_runs_probed=round(runs_total / queries, 2),
            queries_per_second=round(queries / elapsed, 1),
            covering_found=found,
            covering_exists=covered_queries,
            recall=round(found / covered_queries if covered_queries else 1.0, 4),
        )

    start = time.perf_counter()
    for spec in query_specs:
        linear.find_covering(spec.ranges)
    elapsed = time.perf_counter() - start
    table.add(
        epsilon="-",
        mode="linear-scan",
        mean_runs_probed="-",
        queries_per_second=round(queries / elapsed, 1),
        covering_found=covered_queries,
        covering_exists=covered_queries,
        recall=1.0,
    )
    return table


def throughput(sizes: Sequence[int], queries: int) -> ResultTable:
    """E-THROUGHPUT: queries per second vs stored size for each covering index."""
    attributes, order, epsilon = 2, 10, 0.1
    dims = 2 * attributes
    table = ResultTable("E-THROUGHPUT: covering-check throughput vs stored subscriptions")
    query_specs = SubscriptionWorkload(
        attributes=attributes, attribute_order=order, width_fraction=0.1, seed=THROUGHPUT_SEED + 5
    ).generate(queries, prefix="query")
    for size in sizes:
        # Narrow and broad stored ranges: the broad ones make covering common
        # and are what the SFC search finds first.
        stored = mixed_width_workload(
            attributes=attributes,
            order=order,
            count=size,
            narrow_fraction=0.85,
            narrow_width=0.15,
            wide_width=0.55,
            seed=THROUGHPUT_SEED,
            prefix="stored",
        )
        approx = ApproximateCoveringDetector(
            attributes=attributes, attribute_order=order, epsilon=epsilon, cube_budget=20_000
        )
        linear = LinearScanCoveringDetector(attributes, order)
        kdtree = KDTree(dims=dims)
        transform = approx.transform
        entries = []
        for spec in stored:
            approx.add_subscription(spec.sub_id, spec.ranges)
            linear.add_subscription(spec.sub_id, spec.ranges)
            point = transform.to_point(spec.ranges)
            kdtree.insert(spec.sub_id, point)
            entries.append((spec.sub_id, point))
        range_tree = RangeTree.build(dims, entries)

        def timed(found) -> Tuple[float, int]:
            start = time.perf_counter()
            hits = sum(1 for spec in query_specs if found(spec))
            return time.perf_counter() - start, hits

        t_approx, hits_approx = timed(lambda s: approx.find_covering(s.ranges).covered)
        t_linear, hits_linear = timed(lambda s: linear.find_covering(s.ranges) is not None)
        t_kd, _ = timed(lambda s: kdtree.find_dominating(transform.to_point(s.ranges)) is not None)
        t_rt, _ = timed(
            lambda s: range_tree.find_dominating(transform.to_point(s.ranges)) is not None
        )
        table.add(
            stored=size,
            approx_qps=round(queries / t_approx, 1),
            linear_qps=round(queries / t_linear, 1),
            linear_comparisons_per_query=round(linear.stats.comparisons / queries, 1),
            kdtree_qps=round(queries / t_kd, 1),
            rangetree_qps=round(queries / t_rt, 1),
            approx_hits=hits_approx,
            exact_hits=hits_linear,
            rangetree_storage_cells=range_tree.storage_cells(),
        )
    return table


def check(cost: ResultTable, scale: ResultTable) -> None:
    """The claims: far fewer runs at ε = 0.05 with most covers found, a
    throughput that does not collapse as the stored set grows, and a range
    tree that pays for its speed in storage."""
    by_eps = {row["epsilon"]: row for row in cost.rows if row["mode"] != "linear-scan"}
    exhaustive, approx = by_eps[0.0], by_eps[0.05]
    assert approx["mean_runs_probed"] * 4 < exhaustive["mean_runs_probed"]
    assert approx["recall"] >= 0.85
    assert exhaustive["recall"] == 1.0

    rows = scale.rows
    # Generous margin on a single-shot measurement.
    assert rows[-1]["approx_qps"] > 0.4 * rows[0]["approx_qps"]
    # The range tree's storage grows much faster than the input.
    assert rows[-1]["rangetree_storage_cells"] > 50 * rows[-1]["stored"]
    # Sound: the approximate detector never finds more covers than exist.
    assert all(row["approx_hits"] <= row["exact_hits"] for row in rows)


def main(argv: Sequence[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, nothing written")
    smoke = parser.parse_args(argv).smoke
    cost_sizes, throughput_sizes = SMOKE if smoke else FULL
    tables = {
        "approx_vs_exhaustive": approx_vs_exhaustive(*cost_sizes),
        "index_throughput": throughput(*throughput_sizes),
    }
    for name, table in tables.items():
        print(table.to_text(), end="\n\n")
        if not smoke:
            (RESULTS / f"{name}.txt").write_text(table.to_text() + "\n")
            write_bench_json(RESULTS / f"BENCH_{name}.json", table.rows)
    check(*tables.values())


if __name__ == "__main__":
    main()
