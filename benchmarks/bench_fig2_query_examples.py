"""FIG2 — the paper's two example point-dominance query regions (Z curve).

Paper reference: Figure 2 and Section 3.1 — the 256×256 extremal region is a
single run; the 257×257 region needs 385 runs but a single run covers >99% of
its volume, so a 0.01-approximate query can stop after one run.
"""

from __future__ import annotations

from repro.analysis.experiments import run_fig2_experiment


def test_fig2_query_examples(run_once, record_table):
    table = run_once(run_fig2_experiment)
    record_table("fig2_query_examples", table)
    rows = {row["region"]: row for row in table.rows}
    assert rows["256x256"]["runs"] == 1
    assert rows["257x257"]["runs"] == 385
    assert rows["257x257"]["largest_run_fraction"] > 0.99
