"""E-MATCH-SCALE — million-subscription matching on one match index.

Paper reference: the scalability claim of Section 1 — SFC-keyed matching is
meant to sustain very large subscription populations because the index is
"just" points in key order.  This bench builds 10^5- and 10^6-subscription
indexes through the bulk ``add_batch`` path, measures insert throughput and
per-event publish throughput (``any_match`` / ``matching_ids``, the calls a
broker makes), and re-verifies exactness (the index against a brute-force
rectangle oracle) before timing anything.

Alongside the text table it emits machine-readable
``results/BENCH_match_scale.json`` (throughput, segment counts, flattened
member entries, rebuild counts, peak RSS) for downstream tooling.

Set ``REPRO_BENCH_SMOKE=1`` for a tiny-size smoke pass (used by ci.sh): the
parity phase still runs in full, but populations shrink.
"""

from __future__ import annotations

import os

from repro.analysis.experiments import run_match_scale_experiment

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

if _SMOKE:
    _PARAMS = dict(
        populations=(2_000,),
        num_events=500,
        num_delivery_events=50,
        parity_subscriptions=120,
        parity_events=80,
    )
else:
    _PARAMS = dict(populations=(100_000, 1_000_000))


def test_match_scale(run_once, record_table):
    table = run_once(run_match_scale_experiment, **_PARAMS)
    record_table("match_scale", table)
    rows = table.rows
    parity = [r for r in rows if r["phase"] == "parity"]
    scale = {r["subscriptions"]: r for r in rows if r["phase"] == "scale"}
    # Exactness first: the index matched the rectangle oracle
    # (run_match_scale_experiment raises on any disagreement first).
    assert parity
    # Every population completed a bulk build and answered publishes.
    for population in _PARAMS.get("populations"):
        row = scale[population]
        assert row["segments"] > 0
        assert row["delivery_events_per_second"] > 0
        assert row["delivered_matches"] > 0
    if not _SMOKE:
        # The seeded populations' recorded match counts: a change to the
        # store or the probe must not move them.
        assert {p: r["delivered_matches"] for p, r in scale.items()} == {
            100_000: 2_881,
            1_000_000: 29_069,
        }
