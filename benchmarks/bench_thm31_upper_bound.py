"""THM3.1 — ε-approximate query cost vs query-region size.

Paper reference: Theorem 3.1 — the number of runs an ε-approximate dominance
query touches is O(log(d/ε)·(2^{α+1}d/ε)^{d−1}), independent of the absolute
side lengths, whereas the exhaustive cost (Theorem 4.1) keeps growing with the
region.  The bench sweeps the side length of a worst-case (all-ones) region
and reports approximate cubes, exhaustive cubes, and the analytic bound.
"""

from __future__ import annotations

from repro.analysis.experiments import run_thm31_experiment


def test_thm31_upper_bound(run_once, record_table):
    table = run_once(
        run_thm31_experiment,
        order=16,
        side_bit_lengths=(6, 8, 10, 12, 14, 16),
    )
    record_table("thm31_upper_bound", table)
    approx = table.column("approx_cubes")
    exhaustive = table.column("exhaustive_cubes")
    bound = table.column("theorem31_bound")[0]
    assert max(approx) <= bound
    assert approx[-1] == approx[-2]  # stabilises as the region keeps growing
    assert exhaustive[-1] > 100 * exhaustive[0]  # exhaustive keeps growing
    assert all(c >= 0.95 for c in table.column("coverage"))
