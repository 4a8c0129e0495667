"""End-to-end integration tests spanning all layers of the library.

These exercise the full pipeline the paper describes: application-level
subscriptions → quantisation → Edelsbrunner–Overmars transform → Z-curve SFC
array → ε-approximate covering → broker-network subscription propagation →
event delivery, and cross-check the outcome against brute-force oracles.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.linear_scan import LinearScanCoveringDetector
from repro.core.covering import OFFLINE_CONFIG, ApproximateCoveringDetector
from repro.index.config import IndexConfig
from repro.pubsub.client import Publisher, Subscriber
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.pubsub.subscription import Event, Subscription
from repro.workloads.generators import covering_chain
from repro.workloads.scenarios import (
    auction_scenario,
    sensor_network_scenario,
    stock_market_scenario,
)


class TestScenarioPipelines:
    @pytest.mark.parametrize(
        "factory", [stock_market_scenario, sensor_network_scenario, auction_scenario]
    )
    @pytest.mark.parametrize("covering", ["exact", "approximate"])
    def test_scenario_runs_without_losing_events(self, factory, covering):
        scenario = factory(num_subscriptions=40, num_events=15, order=8, seed=3)
        network = BrokerNetwork.from_topology(
            scenario.schema,
            tree_topology(5),
            covering=covering,
            config=IndexConfig(epsilon=0.2, cube_budget=5_000),
            seed=1,
        )
        rng = random.Random(11)
        for i, constraints in enumerate(scenario.subscriptions):
            sub = Subscription(scenario.schema, constraints, sub_id=f"s{i}")
            network.subscribe(rng.randrange(5), f"client-{i}", sub)
        for values in scenario.events:
            event = Event(scenario.schema, values)
            missed, extra = network.publish_and_audit(rng.randrange(5), event)
            assert missed == set()
            assert extra == set()

    def test_covering_reduces_traffic_on_stock_scenario(self):
        scenario = stock_market_scenario(num_subscriptions=120, num_events=0, order=8, seed=9)
        traffic = {}
        for covering in ("none", "exact", "approximate"):
            network = BrokerNetwork.from_topology(
                scenario.schema,
                tree_topology(7),
                covering=covering,
                config=IndexConfig(epsilon=0.25, cube_budget=4_000),
                seed=1,
            )
            rng = random.Random(5)
            for i, constraints in enumerate(scenario.subscriptions):
                sub = Subscription(scenario.schema, constraints, sub_id=f"s{i}")
                network.subscribe(rng.randrange(7), f"client-{i}", sub)
            traffic[covering] = network.subscription_messages
        assert traffic["exact"] < traffic["none"]
        assert traffic["approximate"] < traffic["none"]
        assert traffic["approximate"] >= traffic["exact"]


class TestCoveringChainEndToEnd:
    def test_chain_detection_through_all_detectors(self):
        chain = covering_chain(attributes=2, attribute_order=10, depth=10, seed=4)
        approx = ApproximateCoveringDetector(
            attributes=2, attribute_order=10, config=IndexConfig(epsilon=0.05, cube_budget=200_000)
        )
        linear = LinearScanCoveringDetector(attributes=2, attribute_order=10)
        # Insert all but the innermost subscription.
        for spec in chain[:-1]:
            approx.add_subscription(spec.sub_id, spec.ranges)
            linear.add_subscription(spec.sub_id, spec.ranges)
        innermost = chain[-1]
        assert linear.find_covering(innermost.ranges) is not None
        result = approx.find_covering_exhaustive(innermost.ranges)
        assert result.covered
        assert approx.verify_witness(result, innermost.ranges)

    def test_only_root_is_uncovered(self):
        chain = covering_chain(attributes=1, attribute_order=10, depth=8, seed=6)
        approx = ApproximateCoveringDetector(
            attributes=1, attribute_order=10, config=OFFLINE_CONFIG.replace(epsilon=0.01)
        )
        for spec in chain:
            approx.add_subscription(spec.sub_id, spec.ranges)
        root = chain[0]
        result = approx.find_covering_exhaustive(root.ranges, exclude=root.sub_id)
        assert not result.covered
        # Every non-root element is covered by something else (its parent).
        for spec in chain[1:]:
            result = approx.find_covering_exhaustive(spec.ranges, exclude=spec.sub_id)
            assert result.covered


class TestDynamicSubscriptionChurn:
    def test_unsubscribe_reopens_forwarding_in_detector(self):
        """Removing the covering subscription makes previously-covered ones visible again."""
        det = ApproximateCoveringDetector(
            attributes=2, attribute_order=8, config=OFFLINE_CONFIG.replace(epsilon=0.05)
        )
        det.add_subscription("wide", [(0, 250), (0, 250)])
        det.add_subscription("mid", [(20, 200), (20, 200)])
        query = [(50, 100), (50, 100)]
        first = det.find_covering_exhaustive(query)
        assert first.covered
        det.remove_subscription(first.covering_id)
        second = det.find_covering_exhaustive(query)
        assert second.covered
        assert second.covering_id != first.covering_id
        det.remove_subscription(second.covering_id)
        assert not det.find_covering_exhaustive(query).covered

    def test_interleaved_adds_removes_match_linear_scan(self):
        rng = random.Random(2)
        approx = ApproximateCoveringDetector(
            attributes=2, attribute_order=7, config=IndexConfig(epsilon=0.0, cube_budget=500_000)
        )
        linear = LinearScanCoveringDetector(attributes=2, attribute_order=7)
        live = {}
        for step in range(300):
            action = rng.random()
            if action < 0.55 or not live:
                ranges = []
                for _ in range(2):
                    lo = rng.randint(0, 127)
                    hi = min(127, lo + rng.randint(0, 60))
                    ranges.append((lo, hi))
                sub_id = f"s{step}"
                live[sub_id] = tuple(ranges)
                approx.add_subscription(sub_id, ranges)
                linear.add_subscription(sub_id, ranges)
            elif action < 0.8:
                victim = rng.choice(list(live))
                del live[victim]
                approx.remove_subscription(victim)
                linear.remove_subscription(victim)
            else:
                lo1, lo2 = rng.randint(0, 120), rng.randint(0, 120)
                query = [(lo1, min(127, lo1 + 10)), (lo2, min(127, lo2 + 10))]
                expected = linear.find_covering(query) is not None
                got = approx.find_covering(query, epsilon=0.0).covered
                assert got == expected


class TestClientLevelScenario:
    def test_stock_ticker_story(self):
        """The introduction's example, end to end through the broker network."""
        scenario = stock_market_scenario(num_subscriptions=0, num_events=0, order=9)
        schema = scenario.schema
        network = BrokerNetwork.from_topology(
            schema, tree_topology(3), covering="approximate",
            config=IndexConfig(epsilon=0.1, cube_budget=5_000)
        )
        trader = Subscriber(network, broker_id=2, client_id="trader")
        trader.subscribe({"price": (0.0, 95.0), "volume": (500.0, 1_000_000.0)})
        desk = Publisher(network, broker_id=0, client_id="desk")
        matching = desk.publish({"price": 88.0, "volume": 1000.0, "change_pct": 0.5}, event_id="ibm")
        non_matching = desk.publish({"price": 120.0, "volume": 1000.0, "change_pct": 0.5}, event_id="big")
        assert trader.received_events() == ["ibm"]
        assert trader.would_match(matching)
        assert not trader.would_match(non_matching)
