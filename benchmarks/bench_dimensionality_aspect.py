"""E-DIM — query cost vs number of attributes and aspect ratio.

Paper reference: the 2^α and d-exponent terms of Theorems 3.1/4.1 — the cost
of a dominance query grows with the dimensionality of the transformed space
(2× the attribute count) and with the aspect ratio of the query rectangle;
the analytic bound is reported next to the measured mean runs per query.
"""

from __future__ import annotations

from repro.analysis.experiments import run_dimensionality_experiment


def test_dimensionality_and_aspect_ratio(run_once, record_table):
    table = run_once(
        run_dimensionality_experiment,
        attribute_counts=(1, 2, 3),
        alphas=(0, 2, 4),
        num_subscriptions=400,
        num_queries=25,
    )
    record_table("dimensionality_aspect", table)
    by_key = {(r["attributes"], r["requested_aspect_skew"]): r for r in table.rows}
    # More attributes → more runs probed (the curse of dimensionality survives).
    assert (
        by_key[(2, 0)]["mean_runs_probed"] > by_key[(1, 0)]["mean_runs_probed"]
    )
    # The analytic bound always dominates the measurement.
    for row in table.rows:
        assert row["mean_runs_probed"] <= row["theorem31_bound"]
