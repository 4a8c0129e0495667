#!/usr/bin/env python3
"""Broker-network simulation: compare covering strategies on a sensor workload.

Builds a 15-broker tree carrying the sensor-network scenario (temperature /
humidity / battery alerts), replays the same subscription and event stream
under every covering kind a broker offers — none, and approximate, one
exact scan of what a link forwarded — and reports:

* routing-table entries and subscription messages (what covering saves),
* covering-check work units (what covering costs),
* missed event deliveries, which must be zero: every strategy is sound, and
  the script exits non-zero if one loses a delivery.

Inter-broker messages travel through an explicit transport: the synchronous
:class:`~repro.sim.transport.SyncTransport` here (immediate inline delivery —
the covering comparison is about routing state, not timing).  See
``examples/sim_latency_churn.py`` for the discrete-event simulated transport
with latency, bounded queues and broker churn.

Run with:  python examples/broker_network_simulation.py [--smoke]
(``--smoke``: a 7-broker tree and a smaller workload.)
"""

from __future__ import annotations

import argparse
import random

from repro.analysis.reporting import format_bar_chart, format_table
from repro.pubsub import COVERING_KINDS, BrokerNetwork, Event, Subscription, tree_topology
from repro.sim import SyncTransport
from repro.workloads.scenarios import sensor_network_scenario

#: ``(brokers, subscriptions, events)``.
FULL = (15, 250, 80)
SMOKE = (7, 60, 20)


def run_strategy(scenario, brokers: int, covering: str, placements, publish_at) -> dict:
    network = BrokerNetwork.from_topology(
        scenario.schema,
        tree_topology(brokers),
        covering=covering,
        transport=SyncTransport(),
    )
    for i, constraints in enumerate(scenario.subscriptions):
        subscription = Subscription(scenario.schema, constraints, sub_id=f"alert-{i}")
        network.subscribe(placements[i], f"operator-{i}", subscription)

    missed_total = 0
    delivered_total = 0
    for i, values in enumerate(scenario.events):
        event = Event(scenario.schema, values)
        missed, _extra = network.publish_and_audit(publish_at[i], event)
        expected = network.expected_recipients(event)
        delivered_total += len(expected) - len(missed)
        missed_total += len(missed)

    covering_work = sum(b.stats.covering_check_runs for b in network.brokers.values())
    suppressed = sum(b.stats.subscriptions_suppressed for b in network.brokers.values())
    return {
        "covering": covering,
        "routing_table_entries": network.routing_table_entries(),
        "subscription_messages": network.subscription_messages,
        "suppressed_forwards": suppressed,
        "covering_work_units": covering_work,
        "events_delivered": delivered_total,
        "events_missed": missed_total,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="a small network and workload")
    brokers, subscriptions, events = SMOKE if parser.parse_args().smoke else FULL
    scenario = sensor_network_scenario(
        num_subscriptions=subscriptions, num_events=events, order=9, seed=21
    )
    rng = random.Random(99)
    placements = [rng.randrange(brokers) for _ in scenario.subscriptions]
    publish_at = [rng.randrange(brokers) for _ in scenario.events]

    rows = [
        run_strategy(scenario, brokers, covering, placements, publish_at)
        for covering in COVERING_KINDS
    ]

    print(format_table(rows, title=f"Sensor-network workload on a {brokers}-broker tree"))
    print()
    print(
        format_bar_chart(
            [row["covering"] for row in rows],
            [row["routing_table_entries"] for row in rows],
            title="Routing-table entries by covering strategy (lower is better)",
        )
    )
    print()
    lossy = [row["covering"] for row in rows if row["events_missed"] > 0]
    if lossy:
        raise SystemExit(f"covering {lossy} lost event deliveries; every strategy must be sound")
    print("No strategy lost any event delivery in this run.")


if __name__ == "__main__":
    main()
