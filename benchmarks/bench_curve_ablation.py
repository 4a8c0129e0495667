"""E-CURVE — the routing stack under Z-order vs Hilbert vs Gray, end to end.

Paper connection: the machinery is curve-generic (Fact 2.1 holds for any
recursive-partitioning SFC) and Figure 1 shows the curves differ in how many
contiguous key runs the same region needs — two for the Hilbert curve versus
three for the Z curve on the example rectangle.  This benchmark turns that
observation into an end-to-end ablation: the same three application scenarios
run through the full broker stack (SFC match index + approximate covering +
batch churn) once per curve, reporting per-phase throughput and the structure
stats where the curve shows up (match-index segment counts, false positives,
covering runs probed), plus exact run counts for a Fig. 1-style rectangle
family.

The driver asserts the differential inline — per-event delivery sets must be
identical under every curve — and this harness additionally pins the Fig. 1
tendency at workload scale: the Hilbert curve needs fewer runs than the Z
curve in aggregate.

Set ``REPRO_BENCH_SMOKE=1`` for a tiny-size smoke pass (used by ci.sh).
"""

from __future__ import annotations

import os

from repro.analysis.experiments import run_curve_ablation_experiment

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def test_curve_ablation(run_once, record_table):
    if _SMOKE:
        kwargs = dict(
            num_subscriptions=60,
            num_events=30,
            order=7,
            audit_events=6,
            fig1_rectangles=60,
        )
    else:
        kwargs = dict(
            num_subscriptions=240,
            num_events=120,
            order=8,
            audit_events=12,
            fig1_rectangles=250,
        )
    table = run_once(run_curve_ablation_experiment, seed=31, **kwargs)
    record_table("curve_ablation", table)

    routing_rows = [row for row in table.rows if row["phase"] == "routing"]
    run_rows = {row["curve"]: row for row in table.rows if row["phase"] == "runs"}

    # Every (scenario × curve) cell must be present and audit-clean — the
    # driver already raised if any curve lost a delivery or if delivery sets
    # diverged between curves, so this is belt-and-braces on the row shape.
    assert {(row["scenario"], row["curve"]) for row in routing_rows} == {
        (scenario, curve)
        for scenario in ("stock", "sensor", "auction")
        for curve in ("zorder", "hilbert", "gray")
    }
    assert all(row["missed"] == 0 for row in routing_rows), routing_rows

    # Fig. 1 at workload scale: the Hilbert curve maps the same rectangles to
    # fewer contiguous key runs than the Z curve (the paper's Figure 1 shows
    # the 2-vs-3 instance; the aggregate over a seeded family pins the trend).
    assert run_rows["hilbert"]["total_runs"] < run_rows["zorder"]["total_runs"], run_rows
