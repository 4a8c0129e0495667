"""E-MATCH — per-interface event matching: linear scan vs the SFC match index.

Paper connection: Fact 2.1 makes a subscription rectangle a bounded set of
key runs, so "does event p match anything stored here?" becomes a single
ordered-map probe on the run segments instead of a scan of every stored
subscription.  This benchmark shows the crossover: by 1,000 stored
subscriptions per interface the index is decisively faster than the linear
scan, which is the regime a loaded broker actually operates in.

Set ``REPRO_BENCH_SMOKE=1`` to run a tiny-size smoke pass (used by ci.sh) that
exercises the code path without asserting the timing crossover.
"""

from __future__ import annotations

import os

from repro.analysis.experiments import run_event_matching_experiment
from repro.pubsub.routing_table import InterfaceTable

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
#: The smoke sizes: the smallest table that builds its index (a table that
#: still scans makes the experiment raise) and one three times the scan limit.
_SMOKE_SIZES = (InterfaceTable.SCAN_LIMIT + 1, 3 * InterfaceTable.SCAN_LIMIT)


def test_event_matching_crossover(run_once, record_table):
    sizes = _SMOKE_SIZES if _SMOKE else (100, 1_000, 2_000)
    num_events = 40 if _SMOKE else 400
    table = run_once(
        run_event_matching_experiment,
        table_sizes=sizes,
        num_events=num_events,
    )
    record_table("event_matching", table)
    rows = {row["subscriptions"]: row for row in table.rows}
    # The experiment already verified the scan and the index agree on every event.
    assert all(row["false_positives"] <= row["candidates_checked"] for row in table.rows)
    if not _SMOKE:
        # Acceptance: the index beats the scan at >= 1,000 stored
        # subscriptions, and the gap grows with table size.
        assert rows[1_000]["sfc_seconds"] < rows[1_000]["linear_seconds"]
        assert rows[2_000]["sfc_seconds"] < rows[2_000]["linear_seconds"]
        # Generous margin: observed speedups are an order of magnitude.
        assert rows[2_000]["speedup"] >= 2.0
