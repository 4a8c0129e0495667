"""LEM3.2 — volume retained by truncating side lengths to their m MSBs.

Paper reference: Lemma 3.2 — with m ≥ log2(2d/ε) the truncated extremal
rectangle R^m(ℓ) keeps at least a (1 − ε) fraction of vol(R(ℓ)).  The bench
measures the retained fraction over random regions and checks the guarantee.
"""

from __future__ import annotations

from repro.analysis.experiments import run_lem32_experiment


def test_lem32_volume_coverage(run_once, record_table):
    table = run_once(
        run_lem32_experiment, dims=4, order=16, trials=50
    )
    record_table("lem32_volume_coverage", table)
    for row in table.rows:
        assert row["worst_measured_fraction"] >= row["guaranteed_fraction"] - 1e-9
        assert row["mean_measured_fraction"] >= row["guaranteed_fraction"] - 1e-9
