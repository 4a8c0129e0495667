"""E-THROUGHPUT — covering-check throughput vs number of stored subscriptions.

Paper reference: the related-work comparison of Section 1.3 — the SFC index's
per-query cost does not grow with the number of stored subscriptions (unlike
the linear scan used by deployed systems), while the worst-case-optimal range
tree pays for its speed with super-linear storage.  The bench reports
queries/second for the approximate SFC detector, the linear scan, a k-d tree
and a static range tree, plus the range tree's storage blow-up.

On this workload every query has a cover, and the scan stops at the first
one.  Its work per query (``linear_comparisons_per_query``) is therefore set
by where that cover lands in each size's arrival order, not by the table
size, and does not grow with it.  Neither that column nor ``linear_qps`` (one
timed pass of 60 queries) is asserted on; both are reported.
"""

from __future__ import annotations

from repro.analysis.experiments import run_throughput_experiment


def test_index_throughput(run_once, record_table):
    table = run_once(
        run_throughput_experiment,
        sizes=(500, 1_000, 2_000),
        num_queries=60,
    )
    record_table("index_throughput", table)
    rows = table.rows
    # The SFC detector's throughput does not collapse with table size
    # (allow generous noise margins on a single-shot measurement).
    assert rows[-1]["approx_qps"] > 0.4 * rows[0]["approx_qps"]
    # The range tree's storage grows much faster than the input.
    assert rows[-1]["rangetree_storage_cells"] > 50 * rows[-1]["stored"]
    # Soundness: the approximate detector never finds more covers than exist.
    for row in rows:
        assert row["approx_hits"] <= row["exact_hits"]
