#!/usr/bin/env python3
"""Discrete-event simulation demo: latency, flash crowds and broker churn.

Runs the stock-market scenario over a 9-broker tree whose inter-broker
messages travel through a :class:`~repro.sim.transport.SimTransport` — a
deterministic discrete-event kernel with per-link latency, bounded per-broker
inboxes (backpressure, never loss) and broker crash/recover/join.  Three acts:

1. **Latency models** — the same flash-crowd script under fixed, uniform-jitter
   and distance-based link delays; delivery-latency percentiles and hop counts
   per model.
2. **Flash crowd under pressure** — a tiny inbox and slow service rate force
   backpressure during the burst; the audit still loses nothing.
3. **Broker churn** — rolling crash/recover of two brokers while traffic
   flows; for surviving, reachable subscribers the delivery audit stays clean,
   and the recovery resync traffic is reported.

Run with:  python examples/sim_latency_churn.py
"""

from __future__ import annotations

import os

from repro.analysis.reporting import format_table
from repro.index.config import IndexConfig
from repro.pubsub import BrokerNetwork, tree_topology
from repro.sim import (
    FixedLatency,
    SimTransport,
    UniformJitterLatency,
    make_latency_model,
    random_positions,
)
from repro.workloads.dynamics import (
    flash_crowd_script,
    rolling_failures_script,
    run_dynamic_scenario,
)
from repro.workloads.scenarios import stock_market_scenario

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
NUM_BROKERS = 9
BROKER_IDS = list(range(NUM_BROKERS))


def fresh_network(scenario, transport):
    return BrokerNetwork.from_topology(
        scenario.schema,
        tree_topology(NUM_BROKERS),
        covering="approximate",
        config=IndexConfig(epsilon=0.2),
        transport=transport,
    )


def act_one_latency_models(scenario) -> None:
    models = {
        "fixed(0.5)": FixedLatency(0.5),
        "uniform(0.2±0.6)": UniformJitterLatency(0.2, 0.6),
        "distance": make_latency_model(
            "distance", positions=random_positions(BROKER_IDS, seed=11), scale=0.1
        ),
    }
    rows = []
    for name, latency in models.items():
        transport = SimTransport(latency, inbox_capacity=16, service_time=0.01, seed=7)
        network = fresh_network(scenario, transport)
        report = run_dynamic_scenario(
            network, flash_crowd_script(scenario, BROKER_IDS, seed=3), name=name
        )
        summary = report.transport.as_dict()
        rows.append(
            {
                "latency_model": name,
                "missed": report.missed_deliveries,
                "latency_p50": round(summary["latency_p50"], 3),
                "latency_p90": round(summary["latency_p90"], 3),
                "latency_p99": round(summary["latency_p99"], 3),
                "hops_p90": summary["hops_p90"],
            }
        )
    print(format_table(rows, title="Act 1 — flash crowd under three latency models"))


def act_two_backpressure(scenario) -> None:
    transport = SimTransport(
        FixedLatency(0.3), inbox_capacity=2, service_time=0.15, seed=7
    )
    network = fresh_network(scenario, transport)
    report = run_dynamic_scenario(
        network,
        flash_crowd_script(scenario, BROKER_IDS, burst_fraction=0.8, seed=3),
        name="pressure",
    )
    summary = report.transport.as_dict()
    print("Act 2 — flash crowd with 2-slot inboxes and slow brokers:")
    print(
        f"  backpressure retries: {summary['backpressure_retries']:.0f}, "
        f"max queue depth: {summary['max_queue_depth']:.0f}, "
        f"latency p99: {summary['latency_p99']:.2f} "
        f"(vs p50 {summary['latency_p50']:.2f})"
    )
    print(f"  missed deliveries: {report.missed_deliveries} — backpressure delays, it never drops")


def act_three_churn(scenario) -> None:
    transport = SimTransport(
        UniformJitterLatency(0.2, 0.4), inbox_capacity=16, service_time=0.01, seed=7
    )
    network = fresh_network(scenario, transport)
    script = rolling_failures_script(
        scenario, BROKER_IDS, crash_ids=[NUM_BROKERS - 1, NUM_BROKERS - 2], seed=5
    )
    report = run_dynamic_scenario(network, script, name="rolling-failures")
    resynced = sum(b.stats.subscriptions_resynced for b in network.brokers.values())
    dropped = report.transport.messages_dropped
    print("Act 3 — rolling crash/recover of two brokers while publishing:")
    print(
        f"  audited events: {report.audited_events}, "
        f"missed for surviving subscribers: {report.missed_deliveries}"
    )
    print(
        f"  messages dropped at dead brokers: {dropped}, "
        f"subscriptions replayed on recovery: {resynced}"
    )


def main() -> None:
    scenario = stock_market_scenario(
        num_subscriptions=20 if _SMOKE else 80,
        num_events=12 if _SMOKE else 48,
        order=8,
        seed=23,
    )
    act_one_latency_models(scenario)
    print()
    act_two_backpressure(scenario)
    print()
    act_three_churn(scenario)


if __name__ == "__main__":
    main()
