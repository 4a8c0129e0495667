"""Seed-determinism pins: generator and scenario content digests.

Benchmarks and the dynamic scenarios promise "same seed, same workload"; a
silent drift in a generator (a reordered rng call, a changed default) would
invalidate every recorded result while the test suite stayed green.  These
tests hash a canonical serialisation of what each generator produces for a
pinned seed and compare against a recorded digest, so generator drift fails
loudly — if a change is *intentional*, re-pin the digest in the same commit
and say so.
"""

from __future__ import annotations

import hashlib
import json

from repro.workloads.dynamics import (
    flash_crowd_script,
    region_netsplit_script,
    rolling_failures_script,
    rolling_upgrade_script,
    subscription_churn_script,
)
from repro.workloads.topologies import skewed_tree_topology
from repro.workloads.generators import (
    EventWorkload,
    SubscriptionWorkload,
    covering_chain,
)
from repro.workloads.scenarios import (
    auction_scenario,
    sensor_network_scenario,
    stock_market_scenario,
)

BROKER_IDS = list(range(7))


def digest(payload) -> str:
    """SHA-256 of a canonical JSON serialisation."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def action_payload(action):
    """Canonical serialisation of one dynamics Action."""
    row = {
        "time": round(action.time, 9),
        "kind": action.kind,
        "broker": repr(action.broker_id),
        "client": repr(action.client_id),
        "sub": repr(action.sub_id),
        "attach": repr(action.attach_to),
        "audit": action.audit,
    }
    if action.subscription is not None:
        row["ranges"] = list(map(list, action.subscription.ranges))
        row["sub"] = repr(action.subscription.sub_id)
    if action.event is not None:
        row["cells"] = list(action.event.cells)
        row["event"] = repr(action.event.event_id)
    if action.items is not None:
        row["items"] = [
            [
                repr(client_id),
                repr(getattr(payload, "sub_id", payload)),
                list(map(list, getattr(payload, "ranges", ()))) or None,
            ]
            for client_id, payload in action.items
        ]
    return row


class TestGeneratorDigests:
    def test_subscription_workload_digest(self):
        specs = SubscriptionWorkload(attributes=3, attribute_order=8, seed=42).generate(50)
        payload = [[spec.sub_id, list(map(list, spec.ranges))] for spec in specs]
        assert digest(payload) == "159dbec95dde77e8"

    def test_subscription_workload_aspect_skew_digest(self):
        specs = SubscriptionWorkload(
            attributes=2, attribute_order=10, aspect_skew=3, seed=7
        ).generate(50)
        payload = [[spec.sub_id, list(map(list, spec.ranges))] for spec in specs]
        assert digest(payload) == "3dddc8eac9ce7a33"

    def test_event_workload_digest(self):
        events = EventWorkload(attributes=3, attribute_order=8, seed=42).generate(80)
        assert digest([list(cells) for cells in events]) == "9d8456396f049f9e"

    def test_covering_chain_digest(self):
        chain = covering_chain(attributes=2, attribute_order=10, depth=12, seed=13)
        payload = [[spec.sub_id, list(map(list, spec.ranges))] for spec in chain]
        assert digest(payload) == "76a27c3909b90b4e"


class TestScenarioDigests:
    def test_scenario_content_digests(self):
        pins = {
            "stock": ("2d3d090c0d1fee5a", stock_market_scenario),
            "sensor": ("452fdc1825ea1cb5", sensor_network_scenario),
            "auction": ("e71d9f86d074f141", auction_scenario),
        }
        for name, (expected, factory) in pins.items():
            scenario = factory(num_subscriptions=30, num_events=20, seed=5)
            payload = {
                "subs": [sorted(c.items()) for c in scenario.subscriptions],
                "events": [sorted(e.items()) for e in scenario.events],
            }
            assert digest(payload) == expected, name


class TestScriptDigests:
    def test_flash_crowd_digest(self):
        scenario = sensor_network_scenario(num_subscriptions=25, num_events=15, seed=5)
        script = flash_crowd_script(scenario, BROKER_IDS, seed=3)
        assert digest([action_payload(a) for a in script]) == "fa950f5e7b4ad7e3"

    def test_churn_storm_digest(self):
        scenario = stock_market_scenario(num_subscriptions=25, num_events=15, seed=5)
        script = subscription_churn_script(
            scenario, BROKER_IDS, join_broker=7, seed=3
        )
        assert digest([action_payload(a) for a in script]) == "6f62256755cfdc41"

    def test_rolling_failures_digest(self):
        scenario = stock_market_scenario(num_subscriptions=25, num_events=15, seed=5)
        script = rolling_failures_script(scenario, BROKER_IDS, crash_ids=[2, 4], seed=3)
        assert digest([action_payload(a) for a in script]) == "b382b969bb47251b"

    def test_region_netsplit_digest(self):
        scenario = stock_market_scenario(num_subscriptions=25, num_events=15, seed=5)
        topology = skewed_tree_topology(12, skew=1.0, seed=9)
        region = max(
            topology.region_ids(), key=lambda r: len(topology.region_members(r))
        )
        script = region_netsplit_script(scenario, topology, region, seed=3)
        assert digest([action_payload(a) for a in script]) == "7aa8c6a1a2a9d6b9"

    def test_rolling_upgrade_digest(self):
        scenario = stock_market_scenario(num_subscriptions=25, num_events=15, seed=5)
        topology = skewed_tree_topology(12, skew=1.0, seed=9)
        script = rolling_upgrade_script(scenario, topology, seed=3)
        assert digest([action_payload(a) for a in script]) == "4689398016ae7d9a"

    def test_scripts_stable_across_calls(self):
        """Two same-seed builds serialize identically (no hidden global state)."""
        scenario = stock_market_scenario(num_subscriptions=25, num_events=15, seed=5)
        first = [
            action_payload(a)
            for a in subscription_churn_script(scenario, BROKER_IDS, seed=3)
        ]
        second = [
            action_payload(a)
            for a in subscription_churn_script(scenario, BROKER_IDS, seed=3)
        ]
        assert first == second
