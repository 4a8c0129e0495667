"""E-TOPO-SCALE: internet-scale topology classes, latency and hop distributions.

Each generated topology class (skewed random tree, Barabási–Albert
scale-free, grid-of-clusters WAN) runs at 600 brokers on the simulated
transport, its links priced LAN vs WAN by region; a sensor flash crowd gives
a row of latency and overlay-hop percentiles and the audit.  A second pass
(E-TOPO-SPLIT) cuts each class's biggest region off, publishes in every
partition and heals.  Scale stretches the tail but loses no event: delivery is
exact inside each live component during the split and after the heal.  The
tables carry no timings.  From the repository root::

    python3 experiments/topology_scale.py

rewrites ``topology_scale.txt`` and ``topology_netsplit.txt`` (and their
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
from repro.pubsub import BrokerNetwork  # noqa: E402
from repro.sim import SimTransport  # noqa: E402
from repro.workloads.dynamics import (  # noqa: E402
    flash_crowd_script,
    region_netsplit_script,
    run_dynamic_scenario,
)
from repro.workloads.scenarios import sensor_network_scenario  # noqa: E402
from repro.workloads.topologies import TOPOLOGY_CLASSES, make_topology  # noqa: E402

RESULTS = ROOT / "benchmarks" / "results"
BROKERS, SUBSCRIPTIONS, EVENTS, SPLIT_EVENTS = 600, 60, 40, 36
ORDER = 8
LAN, WAN = 0.02, 0.25
#: The flash crowd's scenario, topologies and transport (its script: + 1).
SEED = 29
#: The netsplit's scenario, topologies, transport and script.
SPLIT_SEEDS = (31, 11, 17, 19)


def _network(schema, topology, seed: int) -> BrokerNetwork:
    transport = SimTransport(
        topology.latency_model(lan=LAN, wan=WAN), inbox_capacity=64, service_time=0.002, seed=seed
    )
    return BrokerNetwork.from_topology(
        schema,
        topology.overlay,
        covering="approximate",
        transport=transport,
        nodes=topology.broker_ids,
    )


def latency_hops(brokers: int, subscriptions: int, events: int) -> ResultTable:
    """E-TOPO-SCALE: one flash-crowd row per topology class."""
    table = ResultTable("E-TOPO-SCALE: latency/hop distributions per generated topology class")
    scenario = sensor_network_scenario(
        num_subscriptions=subscriptions, num_events=events, order=ORDER, seed=SEED
    )
    # The settle must cover the overlay's worst-case propagation (diameter x
    # WAN delay), which grows with scale.
    settle = max(5.0, 4 * WAN * brokers ** 0.5)
    for kind in TOPOLOGY_CLASSES:
        topology = make_topology(kind, brokers, seed=SEED)
        report = run_dynamic_scenario(
            _network(scenario.schema, topology, SEED),
            flash_crowd_script(scenario, topology.broker_ids, settle=settle, seed=SEED + 1),
            name=f"topo-scale/{kind}",
        )
        summary = report.transport.as_dict()
        table.add(
            topology=kind,
            brokers=topology.num_brokers,
            regions=len(topology.region_ids()),
            underlay_edges=len(topology.underlay),
            events=report.events_published,
            missed=report.missed_deliveries,
            latency_p50=round(summary["latency_p50"], 3),
            latency_p90=round(summary["latency_p90"], 3),
            latency_p99=round(summary["latency_p99"], 3),
            hops_p50=summary["hops_p50"],
            hops_p90=summary["hops_p90"],
            hops_max=summary["hops_max"],
            max_queue_depth=summary["max_queue_depth"],
            backpressure_retries=summary["backpressure_retries"],
            messages_sent=summary["messages_sent"],
        )
    return table


def netsplit(brokers: int, subscriptions: int, events: int) -> ResultTable:
    """E-TOPO-SPLIT: region netsplit → per-partition traffic → heal, one row per class."""
    scenario_seed, topology_seed, transport_seed, script_seed = SPLIT_SEEDS
    scenario = sensor_network_scenario(
        num_subscriptions=subscriptions, num_events=events, order=ORDER, seed=scenario_seed
    )
    table = ResultTable("E-TOPO-SPLIT: region netsplit -> per-partition traffic -> heal, by class")
    settle = max(8.0, 2 * WAN * brokers ** 0.5)
    for kind in TOPOLOGY_CLASSES:
        topology = make_topology(kind, brokers, seed=topology_seed)
        network = _network(scenario.schema, topology, transport_seed)
        # The biggest region strands the most subscribers across the cut.
        region = max(topology.region_ids(), key=lambda r: len(topology.region_members(r)))
        script = region_netsplit_script(scenario, topology, region, settle=settle, seed=script_seed)
        components = topology.components_without(topology.region_gateways(region))
        row = run_dynamic_scenario(network, script, name=f"netsplit/{kind}").summary_row()
        row["topology"] = kind
        row["split_components"] = len(components)
        row["resynced"] = sum(b.stats.subscriptions_resynced for b in network.brokers.values())
        table.add(**row)
    return table


def check(scale: ResultTable, split: ResultTable) -> None:
    """The claims; routes are multi-hop but far shorter than a chain's."""
    assert len(scale.rows) == len(TOPOLOGY_CLASSES)
    assert all(row["missed"] == 0 and row["latency_p90"] > 0 for row in scale.rows)
    assert all(2 <= row["hops_max"] < row["brokers"] / 2 for row in scale.rows)
    assert all(row["missed_deliveries"] == row["extra_deliveries"] == 0 for row in split.rows)
    assert all(row["split_components"] >= 2 and row["resynced"] > 0 for row in split.rows)


def main() -> None:
    scale = latency_hops(BROKERS, SUBSCRIPTIONS, EVENTS)
    split = netsplit(BROKERS, SUBSCRIPTIONS, SPLIT_EVENTS)
    for name, table in (("topology_scale", scale), ("topology_netsplit", split)):
        print(table.to_text(), end="\n\n")
        (RESULTS / f"{name}.txt").write_text(table.to_text() + "\n")
        write_bench_json(RESULTS / f"BENCH_{name}.json", table.rows)
    check(scale, split)


if __name__ == "__main__":
    main()
