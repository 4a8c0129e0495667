"""E-SIM-LATENCY: flash-crowd delivery latency on the simulated transport.

For every latency model (fixed / uniform jitter / distance) × topology (tree /
chain / star), a sensor flash crowd runs over bounded inboxes with
backpressure; a row reports latency and hop percentiles, queue depth, retries
and the audit.  A second pass (E-SIM-CHURN) crashes and recovers the last two
brokers.  Timing and queueing may stretch the tail but lose no event, and
neighbours replay forwarded state on recovery.  The tables carry no timings.
From the repository root::

    python3 experiments/sim_latency.py

rewrites ``sim_latency.txt`` and ``sim_rolling_failures.txt`` (and their
``BENCH_*.json``) in ``benchmarks/results/``, then asserts the claims.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.reporting import ResultTable  # noqa: E402
from repro.obs.exposition import write_bench_json  # noqa: E402
from repro.pubsub import BrokerNetwork, chain_topology, star_topology, tree_topology  # noqa: E402
from repro.sim import (  # noqa: E402
    DistanceLatency,
    FixedLatency,
    SimTransport,
    UniformJitterLatency,
    random_positions,
)
from repro.workloads.dynamics import (  # noqa: E402
    flash_crowd_script,
    rolling_failures_script,
    run_dynamic_scenario,
)
from repro.workloads.scenarios import sensor_network_scenario  # noqa: E402

RESULTS = ROOT / "benchmarks" / "results"
BROKERS, SUBSCRIPTIONS, EVENTS = 9, 80, 48
ORDER = 8
#: The flash crowd's scenario, transport and positions (its script: + 1).
SEED = 29
#: The rolling failures' scenario, transport and script.
FAILURE_SEEDS = (31, 17, 19)
TOPOLOGIES = {"tree": tree_topology, "chain": chain_topology, "star": star_topology}
LATENCY_MODELS = ("fixed", "uniform", "distance")


def flash_crowd(brokers: int, subscriptions: int, events: int) -> ResultTable:
    """E-SIM-LATENCY: one row per (latency model × topology)."""
    table = ResultTable("E-SIM-LATENCY: flash-crowd latency by latency model and topology")
    scenario = sensor_network_scenario(
        num_subscriptions=subscriptions, num_events=events, order=ORDER, seed=SEED
    )
    broker_ids = list(range(brokers))
    for model_kind in LATENCY_MODELS:
        for topo_kind, build in TOPOLOGIES.items():
            if model_kind == "fixed":
                latency = FixedLatency(delay=0.5)
            elif model_kind == "uniform":
                latency = UniformJitterLatency(base=0.2, jitter=0.6)
            else:
                latency = DistanceLatency(random_positions(broker_ids, seed=SEED), scale=0.1)
            transport = SimTransport(latency, inbox_capacity=8, service_time=0.02, seed=SEED)
            network = BrokerNetwork.from_topology(
                scenario.schema, build(brokers), covering="approximate", transport=transport
            )
            report = run_dynamic_scenario(
                network,
                flash_crowd_script(scenario, broker_ids, seed=SEED + 1),
                name=f"{model_kind}/{topo_kind}",
            )
            summary = report.transport.as_dict()
            table.add(
                latency_model=model_kind,
                topology=topo_kind,
                events=report.events_published,
                missed=report.missed_deliveries,
                latency_p50=round(summary["latency_p50"], 3),
                latency_p90=round(summary["latency_p90"], 3),
                latency_p99=round(summary["latency_p99"], 3),
                hops_p90=summary["hops_p90"],
                max_queue_depth=summary["max_queue_depth"],
                backpressure_retries=summary["backpressure_retries"],
                messages_sent=summary["messages_sent"],
            )
    return table


def rolling_failures(brokers: int, subscriptions: int, events: int) -> ResultTable:
    """E-SIM-CHURN: the last two brokers crash and recover, one row per topology."""
    scenario_seed, transport_seed, script_seed = FAILURE_SEEDS
    scenario = sensor_network_scenario(
        num_subscriptions=subscriptions, num_events=events, order=ORDER, seed=scenario_seed
    )
    broker_ids = list(range(brokers))
    table = ResultTable("E-SIM-CHURN: rolling broker failures, audit for survivors")
    for name, build in TOPOLOGIES.items():
        latency = UniformJitterLatency(0.2, 0.4)
        transport = SimTransport(latency, inbox_capacity=16, service_time=0.01, seed=transport_seed)
        network = BrokerNetwork.from_topology(
            scenario.schema, build(brokers), covering="approximate", transport=transport
        )
        script = rolling_failures_script(
            scenario, broker_ids, crash_ids=[broker_ids[-1], broker_ids[-2]], seed=script_seed
        )
        row = run_dynamic_scenario(network, script, name=f"rolling/{name}").summary_row()
        row["resynced"] = sum(b.stats.subscriptions_resynced for b in network.brokers.values())
        table.add(**row)
    return table


def check(latency: ResultTable, rolling: ResultTable) -> None:
    """The claims; a chain stretches paths at least as far as a star's two hops."""
    assert len(latency.rows) == len(LATENCY_MODELS) * len(TOPOLOGIES)
    assert all(row["missed"] == 0 and row["latency_p90"] > 0 for row in latency.rows)
    hops = {(row["latency_model"], row["topology"]): row["hops_p90"] for row in latency.rows}
    assert all(hops[model, "chain"] >= hops[model, "star"] for model in LATENCY_MODELS)
    assert all(row["missed_deliveries"] == 0 and row["resynced"] > 0 for row in rolling.rows)


def main() -> None:
    latency = flash_crowd(BROKERS, SUBSCRIPTIONS, EVENTS)
    rolling = rolling_failures(BROKERS, SUBSCRIPTIONS, EVENTS)
    for name, table in (("sim_latency", latency), ("sim_rolling_failures", rolling)):
        print(table.to_text(), end="\n\n")
        (RESULTS / f"{name}.txt").write_text(table.to_text() + "\n")
        write_bench_json(RESULTS / f"BENCH_{name}.json", table.rows)
    check(latency, rolling)


if __name__ == "__main__":
    main()
