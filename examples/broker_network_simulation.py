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

Run with:  python examples/broker_network_simulation.py
"""

from __future__ import annotations

import os
import random

from repro.analysis.reporting import format_bar_chart, format_table
from repro.pubsub import COVERING_KINDS, BrokerNetwork, Event, Subscription, tree_topology
from repro.sim import SyncTransport
from repro.workloads.scenarios import sensor_network_scenario

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
NUM_BROKERS = 7 if _SMOKE else 15


def run_strategy(scenario, covering: str, placements, publish_at) -> dict:
    network = BrokerNetwork.from_topology(
        scenario.schema,
        tree_topology(NUM_BROKERS),
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
    scenario = sensor_network_scenario(
        num_subscriptions=60 if _SMOKE else 250,
        num_events=20 if _SMOKE else 80,
        order=9,
        seed=21,
    )
    rng = random.Random(99)
    placements = [rng.randrange(NUM_BROKERS) for _ in scenario.subscriptions]
    publish_at = [rng.randrange(NUM_BROKERS) for _ in scenario.events]

    rows = [run_strategy(scenario, covering, placements, publish_at) for covering in COVERING_KINDS]

    print(format_table(rows, title="Sensor-network workload on a 15-broker tree"))
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
