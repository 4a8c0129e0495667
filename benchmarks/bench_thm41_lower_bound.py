"""THM4.1 — exhaustive search cost on the adversarial rectangle family.

Paper reference: Theorem 4.1 — for every aspect ratio α there are extremal
rectangles whose exhaustive Z-curve search needs Ω((2^{α−1}·ℓ_d)^{d−1}) runs,
growing with the shortest side ℓ_d.  The bench measures the run count of the
explicit construction from Section 4 and compares it with both the lower
bound and the (constant) approximate-query bound.
"""

from __future__ import annotations

from repro.analysis.experiments import run_thm41_experiment


def test_thm41_lower_bound(run_once, record_table):
    table = run_once(
        run_thm41_experiment, order=14, gammas=(3, 4, 5, 6, 7, 8)
    )
    record_table("thm41_lower_bound", table)
    runs = table.column("exhaustive_runs")
    for row in table.rows:
        assert row["exhaustive_runs"] >= row["theorem41_lower_bound"]
    # Exhaustive cost grows with the shortest side; the approximate bound does not.
    assert runs[-1] > 10 * runs[0]
    approx_bounds = set(table.column("approx_bound_eps_0_05"))
    assert len(approx_bounds) == 1
