"""E-CURVE — key runs per curve on a Fig. 1-style rectangle family.

Paper connection: Fact 2.1 holds for any recursive-partitioning SFC, and
Figure 1 shows the curves differ in how many contiguous key runs the same
region needs — two for the Hilbert curve versus three for the Z curve on the
example rectangle.  This benchmark counts the exact runs of a seeded family
of rectangles under the Z, Hilbert and Gray curves.  The routing stack keys
on the Z curve alone (the curve of the paper's bounds), so no curve is
compared end to end.

The table carries no timings and takes under a second, so it runs at full
size only (``ci.sh`` included) and must regenerate its tracked table byte
for byte.  It pins the Fig. 1 tendency at workload scale: the Hilbert curve
needs fewer runs than the Z curve in aggregate.
"""

from __future__ import annotations

from repro.analysis.experiments import run_curve_ablation_experiment


def test_curve_ablation(run_once, record_table):
    table = run_once(run_curve_ablation_experiment)
    record_table("curve_ablation", table)

    run_rows = {row["curve"]: row for row in table.rows}
    assert all(row["phase"] == "runs" for row in table.rows), table.rows
    assert set(run_rows) == {"zorder", "hilbert", "gray"}

    # Fig. 1 at workload scale: the Hilbert curve maps the same rectangles to
    # fewer contiguous key runs than the Z curve (the paper's Figure 1 shows
    # the 2-vs-3 instance; the aggregate over a seeded family pins the trend).
    assert run_rows["hilbert"]["total_runs"] < run_rows["zorder"]["total_runs"], run_rows
