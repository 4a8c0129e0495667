"""Storage parity: how the match index stores runs never changes an answer.

A differential lifecycle test drives the match index through a random
subscribe/replace/withdraw/publish history against a linear-scan oracle, a
bulk load answers like sequential adds, and whole-network runs produce the
same ``routing_state()`` at every run budget, pinned to a recorded digest.
The run budget is pure performance: it moves neither that digest nor a
single delivery.
"""

from __future__ import annotations

import hashlib
import json
import random
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.config import IndexConfig
from repro.pubsub.match_index import MatchIndex
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.pubsub.routing_table import InterfaceTable
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription
from repro.workloads.dynamics import run_scripted_lockstep, subscription_churn_script
from repro.workloads.scenarios import stock_market_scenario

DEFAULT_RUN_BUDGET = MatchIndex.RUN_BUDGET


def _schema(order=5):
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=order
    )


_lifecycle = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "query"]),
        st.integers(0, 12),  # subscription id pool
        st.tuples(st.integers(0, 31), st.integers(0, 31)),
        st.tuples(st.integers(0, 31), st.integers(0, 31)),
    ),
    max_size=60,
)


@given(_lifecycle, st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)), max_size=25))
def test_lifecycle_differential_against_a_scan(ops, probes):
    index = MatchIndex(_schema())
    oracle = {}
    for op, sid, (xa, xb), (ya, yb) in ops:
        if op == "add":
            ranges = ((min(xa, xb), max(xa, xb)), (min(ya, yb), max(ya, yb)))
            index.add(sid, ranges)
            oracle[sid] = ranges
        elif op == "remove":
            expected = sid in oracle
            oracle.pop(sid, None)
            assert index.remove(sid) == expected
        else:
            cells = (xa, ya)
            expected_ids = sorted(
                s
                for s, rect in oracle.items()
                if all(lo <= c <= hi for (lo, hi), c in zip(rect, cells))
            )
            assert sorted(index.matching_ids(cells)) == expected_ids
            assert index.any_match(cells) == bool(expected_ids)
        assert len(index) == len(oracle)
    for cells in probes:
        expected_ids = sorted(
            s
            for s, rect in oracle.items()
            if all(lo <= c <= hi for (lo, hi), c in zip(rect, cells))
        )
        assert sorted(index.matching_ids(cells)) == expected_ids


def test_add_batch_equals_sequential_adds():
    schema = _schema()
    rng = random.Random(99)
    items = []
    for sid in range(120):
        lo_x, lo_y = rng.randrange(32), rng.randrange(32)
        items.append(
            (
                sid,
                (
                    (lo_x, min(31, lo_x + rng.randrange(10))),
                    (lo_y, min(31, lo_y + rng.randrange(10))),
                ),
            )
        )
    sequential = MatchIndex(schema)
    for sid, ranges in items:
        sequential.add(sid, ranges)
    batched = MatchIndex(schema)
    batched.add_batch(items)
    for _ in range(200):
        cells = (rng.randrange(32), rng.randrange(32))
        expected = sorted(sequential.matching_ids(cells))
        assert sorted(batched.matching_ids(cells)) == expected


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def _network_state(run_budget: int):
    scenario = stock_market_scenario(num_subscriptions=25, num_events=10, order=7, seed=5)
    with patch.object(MatchIndex, "RUN_BUDGET", run_budget):
        network = BrokerNetwork.from_topology(
            scenario.schema,
            tree_topology(7),
            covering="approximate",
            config=IndexConfig(),
        )
        script = subscription_churn_script(scenario, list(range(7)), seed=3)
        run_scripted_lockstep(network, script)
        return network.routing_state()


def test_routing_state_identical_across_run_budgets():
    """The run budget is invisible in routing state — and it is pinned.

    If the pin moves, routing behaviour changed (not just performance);
    re-pin only with an explanation in the same commit.
    """
    run_budgets = (4, DEFAULT_RUN_BUDGET)
    states = {run_budget: _network_state(run_budget) for run_budget in run_budgets}
    reference = states[DEFAULT_RUN_BUDGET]
    assert all(state == reference for state in states.values())
    # Routing state does not depend on the run budget, only on forwarding
    # decisions, each one exact scan of a link's forwarded set.
    assert _digest(reference) == "c6ad33953fcabcc0"


def _drive(run_budget: int, brokers: int = 4):
    """Subscribe 50 rectangles, publish 120 events; returns the delivery sets,
    the key segments the network's match indexes store and the candidates
    they checked."""
    schema = _schema(order=8)
    rng = random.Random(7)
    # Up to 50 subscriptions a table: a limit of 16 has the tables index.
    with patch.object(MatchIndex, "RUN_BUDGET", run_budget), patch.object(
        InterfaceTable, "SCAN_LIMIT", 16
    ):
        network = BrokerNetwork.from_topology(
            schema,
            tree_topology(brokers),
            seed=11,
        )
        for i in range(50):
            lo_x, lo_y = rng.uniform(0, 70), rng.uniform(0, 70)
            subscription = Subscription(
                schema,
                {
                    "x": (lo_x, lo_x + rng.uniform(1, 30)),
                    "y": (lo_y, lo_y + rng.uniform(1, 30)),
                },
                sub_id=f"s{i}",
            )
            network.subscribe(i % brokers, f"c{i}", subscription)
        events = [
            Event(schema, {"x": rng.uniform(0, 100), "y": rng.uniform(0, 100)}, event_id=f"e{j}")
            for j in range(120)
        ]
        delivered = [
            frozenset(network.publish(j % brokers, event)) for j, event in enumerate(events)
        ]
    tables = [broker.routing_table for broker in network.brokers.values()]
    segments = sum(table.match_segments() for table in tables)
    candidates = sum(table.match_work()[1] for table in tables)
    return delivered, segments, candidates


def test_run_budget_never_changes_deliveries():
    """A coarser decomposition stores fewer runs; it never changes a delivery."""
    coarse, coarse_segments, _ = _drive(run_budget=1)
    finer, finer_segments, _ = _drive(run_budget=4)
    assert any(coarse)
    # The budget reached the match indexes, so the comparison is not vacuous.
    assert coarse_segments < finer_segments
    assert finer == coarse


@pytest.mark.parametrize("brokers", [3, 4, 5])
def test_a_finer_run_budget_checks_fewer_candidates_network_wide(brokers):
    """The finer decomposition prunes candidates the coarse one leaves to
    the rectangle check, and delivers the same events, however the
    subscriptions spread over the tree."""
    coarse, _, coarse_candidates = _drive(run_budget=1, brokers=brokers)
    finer, _, finer_candidates = _drive(run_budget=4, brokers=brokers)
    assert finer_candidates < coarse_candidates
    assert finer == coarse
