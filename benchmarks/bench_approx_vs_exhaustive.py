"""E-COST — covering-query cost: approximate vs exhaustive vs linear scan.

Paper reference: the headline claim of Sections 1 and 3 — an ε-approximate
covering search touches far fewer runs than an exhaustive one while still
finding most existing covering relationships.  The bench sweeps ε (including
ε = 0, the exhaustive case) on a single-attribute workload where the
exhaustive cost is measurable, and reports runs probed, throughput and recall.
"""

from __future__ import annotations

from repro.analysis.experiments import run_approx_vs_exhaustive_experiment


def test_approx_vs_exhaustive(run_once, record_table):
    table = run_once(
        run_approx_vs_exhaustive_experiment,
        order=12,
        num_subscriptions=2_000,
        num_queries=200,
        epsilons=(0.0, 0.01, 0.05, 0.1, 0.2),
    )
    record_table("approx_vs_exhaustive", table)
    by_eps = {row["epsilon"]: row for row in table.rows if row["mode"] != "linear-scan"}
    exhaustive = by_eps[0.0]
    approx = by_eps[0.05]
    # The approximate query does far less work per query...
    assert approx["mean_runs_probed"] * 4 < exhaustive["mean_runs_probed"]
    # ...while still detecting most covering relationships.
    assert approx["recall"] >= 0.85
    assert exhaustive["recall"] == 1.0
