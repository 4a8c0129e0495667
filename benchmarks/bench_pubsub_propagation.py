"""E-PUBSUB — subscription propagation in a broker tree, per covering kind.

Paper reference: the motivation of Section 1 — covering shrinks routing tables
and subscription traffic while never losing events (a missed cover only
costs an extra forward; it cannot suppress a needed subscription).  A broker
link checks covering with one exact scan of the subscriptions it forwarded,
which meets the paper's ε-approximate contract for every ε: that is the
``approximate`` row.

Every interface table scans while it is small and builds its Z-order match
index once it outgrows the flat store's staging buffer, so the delivery audit
certifies both matching paths: no covering kind may miss an event.

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
    table = run_once(run_pubsub_experiment, **_SIZES)
    record_table("pubsub_propagation", table)
    rows = {row["strategy"]: row for row in table.rows}
    assert set(rows) == {"none", "approximate"}
    # Covering shrinks routing state and subscription traffic.
    assert rows["approximate"]["routing_table_entries"] < rows["none"]["routing_table_entries"]
    assert rows["approximate"]["subscription_messages"] < rows["none"]["subscription_messages"]
    # No covering kind loses events: a reported cover really covers.
    assert all(row["events_missed"] == 0 for row in table.rows)
