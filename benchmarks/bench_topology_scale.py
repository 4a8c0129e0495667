"""E-TOPO-SCALE — internet-scale topology classes: latency/hop distributions.

The stock tree/chain/star shapes are toy-scale; this benchmark runs the
generated topology classes (skewed random tree, Barabási–Albert scale-free,
grid-of-clusters WAN) through the simulated transport with WAN-vs-LAN region
latency tiers, and emits per-class delivery-latency and overlay-hop
distributions to ``BENCH_topology_scale.json``.  Every row must report zero
missed deliveries — scale stretches the latency tail, it may not lose events.

A second pass runs the region netsplit → per-partition traffic → heal
scenario on each class and asserts the partition-aware audit is clean in
every phase: exact delivery inside each live component during the split, and
clean reconvergence on the healed overlay.

Set ``REPRO_BENCH_SMOKE=1`` for a tiny-size smoke pass (used by ci.sh).
"""

from __future__ import annotations

import os

from repro.analysis.experiments import run_topology_scale_experiment
from repro.analysis.reporting import ResultTable
from repro.index.config import IndexConfig
from repro.pubsub import BrokerNetwork
from repro.sim import SimTransport
from repro.workloads.dynamics import region_netsplit_script, run_dynamic_scenario
from repro.workloads.scenarios import sensor_network_scenario
from repro.workloads.topologies import TOPOLOGY_CLASSES, make_topology

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
_SIZES = dict(
    num_brokers=36 if _SMOKE else 600,
    num_subscriptions=20 if _SMOKE else 60,
    num_events=12 if _SMOKE else 40,
)


def test_topology_scale_latency_hops(run_once, record_table):
    table = run_once(run_topology_scale_experiment, seed=29, **_SIZES)
    record_table("topology_scale", table)
    assert len(table.rows) == len(TOPOLOGY_CLASSES)
    # Safety is size-independent: no topology class may lose a delivery.
    assert all(row["missed"] == 0 for row in table.rows)
    # The sim actually propagated: real latency, real multi-hop routes.
    assert all(row["latency_p90"] > 0 for row in table.rows)
    assert all(row["hops_max"] >= 2 for row in table.rows)
    # Generated overlays stay shallow: BFS spanning trees and random
    # attachment keep route length far below the chain-like worst case.
    assert all(row["hops_max"] < row["brokers"] / 2 for row in table.rows)


def test_topology_netsplit_heal_audit_clean(run_once, record_table):
    scenario = sensor_network_scenario(
        num_subscriptions=_SIZES["num_subscriptions"],
        num_events=18 if _SMOKE else 36,
        order=8,
        seed=31,
    )

    def run() -> ResultTable:
        table = ResultTable(
            "E-TOPO-SPLIT: region netsplit -> per-partition traffic -> heal, by class"
        )
        for kind in TOPOLOGY_CLASSES:
            topology = make_topology(kind, _SIZES["num_brokers"], seed=11)
            transport = SimTransport(
                topology.latency_model(lan=0.02, wan=0.25),
                inbox_capacity=64,
                service_time=0.002,
                seed=17,
            )
            network = BrokerNetwork.from_topology(
                scenario.schema,
                topology.overlay,
                covering="approximate",
                config=IndexConfig(epsilon=0.2),
                transport=transport,
                nodes=topology.broker_ids,
            )
            # Split the biggest region: the most subscribers stranded on the
            # far side of the cut, the strongest partition-audit workout.
            region = max(
                topology.region_ids(), key=lambda r: len(topology.region_members(r))
            )
            settle = max(8.0, 2 * 0.25 * _SIZES["num_brokers"] ** 0.5)
            script = region_netsplit_script(
                scenario, topology, region, settle=settle, seed=19
            )
            components = topology.components_without(topology.region_gateways(region))
            report = run_dynamic_scenario(network, script, name=f"netsplit/{kind}")
            row = report.summary_row()
            row["topology"] = kind
            row["split_components"] = len(components)
            row["resynced"] = sum(
                broker.stats.subscriptions_resynced for broker in network.brokers.values()
            )
            table.add(**row)
        return table

    table = run_once(run)
    record_table("topology_netsplit", table)
    # Partition-aware audit: exact in every live component during the split
    # (missed == 0) and nothing leaked across the healing boundary
    # (extra == 0); recovery traffic proves the heal actually resynced.
    assert all(row["missed_deliveries"] == 0 for row in table.rows)
    assert all(row["extra_deliveries"] == 0 for row in table.rows)
    assert all(row["split_components"] >= 2 for row in table.rows)
    assert all(row["resynced"] > 0 for row in table.rows)
