"""The systems experiments at tiny sizes: the ``experiments/`` scripts
E-SIM-LATENCY, E-TOPO-SCALE, E-MATCH-SCALE and E-SUB-CHURN.

Each script's functions take their sizes; here they run small, and the
script's ``check`` (the claims its ``main`` asserts) must hold on their
tables and fail on a row that breaks one.
"""

from __future__ import annotations

import pytest

from experiment_loader import load_experiment


def test_sim_latency_loses_nothing_and_resyncs():
    script = load_experiment("sim_latency")
    latency, rolling = script.flash_crowd(5, 20, 12), script.rolling_failures(5, 20, 12)
    script.check(latency, rolling)
    rolling.rows[0]["resynced"] = 0
    with pytest.raises(AssertionError):
        script.check(latency, rolling)


def test_topology_scale_loses_nothing_across_the_split():
    script = load_experiment("topology_scale")
    scale, split = script.latency_hops(36, 20, 12), script.netsplit(36, 20, 18)
    script.check(scale, split)
    split.rows[0]["missed_deliveries"] = 1
    with pytest.raises(AssertionError):
        script.check(scale, split)


def test_match_scale_agrees_with_the_rectangle_oracle(monkeypatch):
    script = load_experiment("match_scale")
    table = script.match_scale((1_500,), 300, 30, 120, 80)
    assert [row["phase"] for row in table.rows] == ["parity", "scale"]
    script.check(table, (1_500,))
    # A recorded population whose match count moved fails the check.
    table.rows[1].update(subscriptions=100_000, delivered_matches=2_880)
    with pytest.raises(AssertionError):
        script.check(table, (100_000,))
    # An index that drops a delivery fails the parity phase.
    monkeypatch.setattr(script.MatchIndex, "matching_ids", lambda self, *args: [])
    with pytest.raises(AssertionError, match="rectangle oracle"):
        script.match_scale((), 0, 0, 120, 80)


def test_churn_audit_phase_misses_nothing():
    """After the batch churn, every (topology × transport) pair delivers to
    exactly the surviving matching subscribers."""
    script = load_experiment("subscription_churn")
    table = script.churn((), 4, 3, 6, 60, 4)
    audit = [row for row in table.rows if row["phase"] == "audit"]
    expected = [(t, transport) for t in ("tree", "chain", "star") for transport in ("sync", "sim")]
    assert [(row["topology"], row["transport"]) for row in audit] == expected
    assert all(row["missed"] == 0 for row in audit)
    script.check(table)
    audit[0]["missed"] = 1
    with pytest.raises(AssertionError):
        script.check(table)


def test_churn_batch_and_sequential_arms_agree():
    """The churn phase raises unless the batch calls leave the routing state
    and broker counters the per-call path leaves."""
    table = load_experiment("subscription_churn").churn((120,), 4, 3, 6, 0, 0)
    (row,) = [row for row in table.rows if row["phase"] == "churn"]
    assert row["subscriptions"] == 120 and row["withdrawals"] == 9
