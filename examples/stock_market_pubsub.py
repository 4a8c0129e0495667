#!/usr/bin/env python3
"""Stock-market publish/subscribe: the paper's motivating scenario, end to end.

The introduction's example — a subscriber interested in
``[stock = IBM, volume > 500, current < 95]`` receiving the event
``[stock = IBM, volume = 1000, current = 88]`` — is played out on a broker
tree whose routers use ε-approximate covering to prune subscription
propagation.  The example then replays a larger synthetic trader workload and
reports how much routing state each covering strategy saves, and verifies
that no events are lost.

Run with:  python examples/stock_market_pubsub.py
"""

from __future__ import annotations

import random

from repro.analysis.reporting import format_table
from repro.index.config import IndexConfig
from repro.pubsub import (
    BrokerNetwork,
    Event,
    Publisher,
    Subscriber,
    Subscription,
    tree_topology,
)
from repro.workloads.scenarios import stock_market_scenario


def motivating_example() -> None:
    """The single-subscriber example from the paper's introduction."""
    scenario = stock_market_scenario(num_subscriptions=0, num_events=0)
    schema = scenario.schema

    network = BrokerNetwork.from_topology(
        schema, tree_topology(5), covering="approximate",
        config=IndexConfig(epsilon=0.05, cube_budget=5_000)
    )
    trader = Subscriber(network, broker_id=4, client_id="ibm-trader")
    trader.subscribe({"volume": (500.0, 1_000_000.0), "price": (0.0, 95.0)})

    desk = Publisher(network, broker_id=0, client_id="trading-desk")
    desk.publish({"price": 88.0, "volume": 1000.0, "change_pct": 0.3}, event_id="ibm-tick")
    desk.publish({"price": 120.0, "volume": 50.0, "change_pct": -1.0}, event_id="other-tick")

    print("Motivating example")
    print(f"  trader received: {trader.received_events()}")
    print(f"  subscription messages sent between brokers: {network.subscription_messages}")
    print()


def trader_workload() -> None:
    """A population of traders with overlapping price-band subscriptions."""
    scenario = stock_market_scenario(num_subscriptions=200, num_events=60, order=9, seed=7)
    rng = random.Random(13)
    placements = [rng.randrange(9) for _ in scenario.subscriptions]
    publish_at = [rng.randrange(9) for _ in scenario.events]

    rows = []
    for covering in ("none", "exact", "approximate"):
        network = BrokerNetwork.from_topology(
            scenario.schema,
            tree_topology(9),
            covering=covering,
            config=IndexConfig(epsilon=0.25, cube_budget=4_000),
            seed=1,
        )
        for i, constraints in enumerate(scenario.subscriptions):
            sub = Subscription(scenario.schema, constraints, sub_id=f"trader-{i}")
            network.subscribe(placements[i], f"client-{i}", sub)
        missed_total = 0
        for i, values in enumerate(scenario.events):
            missed, _ = network.publish_and_audit(publish_at[i], Event(scenario.schema, values))
            missed_total += len(missed)
        rows.append(
            {
                "covering": covering,
                "routing_table_entries": network.routing_table_entries(),
                "subscription_messages": network.subscription_messages,
                "events_missed": missed_total,
            }
        )

    print(format_table(rows, title="Trader workload: routing state per covering strategy"))
    none_entries = rows[0]["routing_table_entries"]
    approx_entries = rows[2]["routing_table_entries"]
    saved = 100.0 * (none_entries - approx_entries) / none_entries
    print(f"\nApproximate covering eliminated {saved:.1f}% of routing-table entries "
          "without losing a single event.")


def main() -> None:
    motivating_example()
    trader_workload()


if __name__ == "__main__":
    main()
