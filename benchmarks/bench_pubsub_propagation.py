"""E-PUBSUB — subscription propagation in a broker tree, per covering strategy.

Paper reference: the motivation of Section 1 — covering shrinks routing tables
and subscription traffic, and approximate covering retains much of that
benefit while never losing events (missed covers only cost extra forwarding;
they cannot suppress a needed subscription).  Links no larger than a probe
schedule are compared directly, so at this benchmark's sizes approximate
covering retains all of it.

Every interface table scans while it is small and builds its Z-order match
index once it outgrows the flat store's staging buffer, so the delivery audit
certifies both matching paths: no strategy may miss an event.

Set ``REPRO_BENCH_SMOKE=1`` for a tiny-size smoke pass (used by ci.sh).
"""

from __future__ import annotations

import os

from repro.analysis.experiments import run_pubsub_experiment

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
_SIZES = dict(
    num_brokers=5 if _SMOKE else 7,
    num_subscriptions=40 if _SMOKE else 150,
    num_events=10 if _SMOKE else 40,
)


def test_pubsub_propagation(run_once, record_table):
    table = run_once(
        run_pubsub_experiment,
        epsilon=0.3,
        cube_budget=4_000,
        **_SIZES,
    )
    record_table("pubsub_propagation", table)
    rows = {row["strategy"]: row for row in table.rows}
    none_row = rows["none"]
    exact_row = rows["exact"]
    approx_row = next(v for k, v in rows.items() if str(k).startswith("approximate"))
    # Covering shrinks routing state; approximate covering keeps the benefit
    # in full wherever a link is compared rather than probed.  At these sizes
    # (150 subscriptions against plans of up to 4,000 cubes) every link is, so
    # the exact and approximate rows coincide by design; they part only once a
    # link outgrows its plans.
    assert exact_row["routing_table_entries"] < none_row["routing_table_entries"]
    assert approx_row["routing_table_entries"] < none_row["routing_table_entries"]
    assert approx_row["routing_table_entries"] >= exact_row["routing_table_entries"]
    # No strategy loses events: approximate covering is sound.
    assert all(row["events_missed"] == 0 for row in table.rows)

