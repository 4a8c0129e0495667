"""E-SUB-CHURN — batched subscription churn vs sequential calls.

Paper connection: the covering optimisation's cost lives on the subscription
path — every arrival runs a covering check per link, and every withdrawal of a
covering subscription must promote the subscriptions it had been suppressing.
The broker computes each subscription's dominance-region probe plan once
(shared across links, brokers and promotion re-checks) and promotes via the
dependents map; ``subscribe_batch`` / ``unsubscribe_batch`` amortise a batch
over that one engine.  This benchmark times both APIs at 10k–50k
subscriptions and checks the safety claim after churn on tree/chain/star
under both transports.  The driver raises unless the batch API leaves
byte-identical routing state to the sequential calls, at every size.

``results/subscription_churn_pr12_rescan_unshared.txt`` is the frozen PR 12
measurement against the removed full-rescan + unshared-profile arm.

Set ``REPRO_BENCH_SMOKE=1`` for a tiny-size smoke pass (used by ci.sh).
"""

from __future__ import annotations

import os

from repro.analysis.experiments import run_subscription_churn_experiment

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def test_subscription_churn(run_once, record_table):
    if _SMOKE:
        kwargs = dict(
            sizes=(200, 400),
            num_brokers=7,
            max_cover_withdrawals=20,
            narrow_withdrawals=30,
            audit_events=10,
        )
    else:
        # audit_size trims the 6-way topology/transport matrix; the churn
        # comparison itself runs at the full sizes.
        kwargs = dict(sizes=(10_000, 50_000), audit_size=5_000)
    table = run_once(run_subscription_churn_experiment, seed=11, **kwargs)
    record_table("subscription_churn", table)

    audit_rows = [row for row in table.rows if row["phase"] == "audit"]
    # Safety first: after batch churn (withdrawal promotion included), no
    # audited event may miss a surviving subscriber on any topology/transport.
    assert audit_rows, "audit matrix is empty"
    assert {(row["topology"], row["transport"]) for row in audit_rows} >= {
        ("tree", "sync"),
        ("tree", "sim"),
        ("chain", "sync"),
        ("chain", "sim"),
        ("star", "sync"),
        ("star", "sim"),
    }
    assert all(row["missed"] == 0 for row in audit_rows), audit_rows
