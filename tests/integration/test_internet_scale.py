"""Internet-scale acceptance run: 1,024 brokers, netsplit → publish → heal.

The acceptance bar for the topology subsystem: a seeded 1,000+-broker
generated topology — a skewed random tree and a Barabási–Albert scale-free
graph, the latter reduced to an acyclic overlay by the spanning-tree
builder — runs a region netsplit → per-partition publish → heal → publish
script on the simulated transport with WAN-vs-LAN region latencies, and

* the partition-aware audit is clean in every phase (no missed deliveries
  inside any live component, nothing leaked across the healed boundary), and
* the run is byte-stable under its seed: two identical runs produce the
  same canonical digest of audits, deliveries, and final routing state.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.index.config import IndexConfig
from repro.pubsub import BrokerNetwork
from repro.sim import SimTransport
from repro.workloads.dynamics import region_netsplit_script, run_dynamic_scenario
from repro.workloads.scenarios import sensor_network_scenario
from repro.workloads.topologies import make_topology

NUM_BROKERS = 1024


def run_netsplit(kind):
    """One full netsplit/heal run; returns (report, canonical run digest)."""
    scenario = sensor_network_scenario(
        num_subscriptions=24, num_events=18, order=8, seed=5
    )
    topology = make_topology(kind, NUM_BROKERS, seed=11)
    transport = SimTransport(
        topology.latency_model(lan=0.01, wan=0.1),
        inbox_capacity=512,
        service_time=0.0,
        seed=13,
    )
    network = BrokerNetwork.from_topology(
        scenario.schema,
        topology.overlay,
        covering="approximate",
        config=IndexConfig(),
        transport=transport,
        nodes=topology.broker_ids,
    )
    region = max(topology.region_ids(), key=lambda r: len(topology.region_members(r)))
    script = region_netsplit_script(scenario, topology, region, settle=30.0, seed=19)
    split_at = min(a.time for a in script if a.kind == "crash")
    heal_at = max(a.time for a in script if a.kind == "recover")
    report = run_dynamic_scenario(network, script, name=f"internet-scale/{kind}")
    payload = {
        "audits": [
            {
                "event": repr(entry.event_id),
                "time": round(entry.time, 9),
                "origin": repr(entry.origin),
                "expected": sorted(map(repr, entry.expected)),
                "delivered": sorted(map(repr, entry.delivered)),
            }
            for entry in report.audits
        ],
        "deliveries": sorted(
            [repr(r.client_id), repr(r.event_id), round(r.time, 9)]
            for r in network.deliveries
        ),
        "routing": network.routing_state(),
    }
    run_digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return report, run_digest, split_at, heal_at


@pytest.mark.parametrize("kind", ["skewed-tree", "scale-free"])
def test_thousand_broker_netsplit_heal(kind):
    report, first_digest, split_at, heal_at = run_netsplit(kind)
    # Clean partition-aware audit in every phase: no audited publish lost a
    # delivery inside its live component, and nothing crossed the cut.
    assert report.missed_deliveries == 0
    assert report.extra_deliveries == 0
    assert report.clean
    # Each phase actually exercised the audit: traffic before the split, per
    # partition during it, and on the reconverged overlay after the heal.
    phases = {"pre": 0, "split": 0, "post": 0}
    for entry in report.audits:
        if entry.time < split_at:
            phases["pre"] += 1
        elif entry.time < heal_at:
            phases["split"] += 1
        else:
            phases["post"] += 1
    assert all(count > 0 for count in phases.values()), phases
    # Byte-stable under the seed: an identical second run digests identically.
    _, second_digest, _, _ = run_netsplit(kind)
    assert first_digest == second_digest
