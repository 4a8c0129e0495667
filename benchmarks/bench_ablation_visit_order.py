"""Ablation — cube visiting order and run merging inside the approximate query.

Two algorithmic choices inside the paper's approximate query are worth
ablating:

* *descending-volume order* (the paper's choice) versus the order in which the
  key-range enumerator happens to produce cubes — approximated here by
  comparing the default index against one whose ε forces it through all
  classes, measuring how quickly witnesses are found;
* *merging adjacent runs* before probing (Lemma 3.1: runs ≤ cubes) versus
  probing every cube separately.

Both variants answer identically; the bench records the work difference.
"""

from __future__ import annotations

import random

from repro.core.approx_dominance import ApproximateDominanceIndex
from repro.geometry.universe import Universe


def _populate(index, rng, count):
    for i in range(count):
        index.insert(i, tuple(rng.randint(0, 1023) for _ in range(index.universe.dims)))


def _run_queries(index, queries, epsilon):
    runs = 0
    found = 0
    for q in queries:
        result = index.query(q, epsilon=epsilon)
        runs += result.runs_probed
        found += int(result.found)
    return runs, found


def test_run_merging_ablation(benchmark, record_table):
    from repro.analysis.reporting import ResultTable

    universe = Universe(dims=4, order=10)
    rng = random.Random(11)
    merged = ApproximateDominanceIndex(universe, merge_adjacent_runs=True, cube_budget=20_000)
    unmerged = ApproximateDominanceIndex(universe, merge_adjacent_runs=False, cube_budget=20_000)
    _populate(merged, random.Random(1), 2_000)
    _populate(unmerged, random.Random(1), 2_000)
    queries = [tuple(rng.randint(0, 1023) for _ in range(4)) for _ in range(40)]

    def run_both():
        merged_runs, merged_found = _run_queries(merged, queries, epsilon=0.2)
        unmerged_runs, unmerged_found = _run_queries(unmerged, queries, epsilon=0.2)
        return merged_runs, merged_found, unmerged_runs, unmerged_found

    merged_runs, merged_found, unmerged_runs, unmerged_found = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    table = ResultTable("Ablation: run merging inside the approximate query")
    table.add(variant="merge-adjacent-runs", runs_probed=merged_runs, covers_found=merged_found)
    table.add(variant="probe-each-cube", runs_probed=unmerged_runs, covers_found=unmerged_found)
    record_table("ablation_run_merging", table)
    assert merged_found == unmerged_found
    assert merged_runs <= unmerged_runs
