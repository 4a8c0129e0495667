"""Cross-transport equivalence: SyncTransport and SimTransport converge.

The broker protocol is deterministic in per-link arrival order.  When a
scripted ``workloads.dynamics`` scenario runs in lockstep — every action
fully propagated before the next fires — the transport's timing model can
only reorder messages *within* one action's propagation wave, which the
acyclic overlay makes irrelevant: each broker sees the wave through a single
upstream link.  So after each scripted scenario the synchronous inline
transport and the latency/queueing simulation must leave byte-identical
normalised per-broker routing/forwarded/suppressed state.
"""

from __future__ import annotations

import pytest

from repro.index.config import IndexConfig
from repro.pubsub.network import BrokerNetwork, chain_topology, star_topology, tree_topology
from repro.sim.latency import UniformJitterLatency
from repro.sim.transport import SimTransport
from repro.workloads.dynamics import (
    flash_crowd_script,
    rolling_failures_script,
    run_scripted_lockstep,
    subscription_churn_script,
)
from repro.workloads.scenarios import sensor_network_scenario, stock_market_scenario

NUM_BROKERS = 7
BROKER_IDS = list(range(NUM_BROKERS))

TOPOLOGIES = {
    "tree": tree_topology,
    "chain": chain_topology,
    "star": star_topology,
}


def small_scenario():
    return stock_market_scenario(num_subscriptions=40, num_events=16, order=8, seed=7)


def make_network(scenario, topology, transport_kind):
    transport = (
        SimTransport(UniformJitterLatency(0.05, 0.2), seed=5)
        if transport_kind == "sim"
        else None
    )
    return BrokerNetwork.from_topology(
        scenario.schema,
        TOPOLOGIES[topology](NUM_BROKERS),
        covering="approximate",
        config=IndexConfig(),
        transport=transport,
    )


def lockstep_state(scenario, topology, script, transport_kind):
    network = make_network(scenario, topology, transport_kind)
    run_scripted_lockstep(network, script)
    return network.routing_state()


class TestCrossTransportEquivalence:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_churn_storm_converges_identically(self, topology):
        scenario = small_scenario()
        script = subscription_churn_script(
            scenario, BROKER_IDS, join_broker=NUM_BROKERS, seed=3
        )
        sync_state = lockstep_state(scenario, topology, script, "sync")
        sim_state = lockstep_state(scenario, topology, script, "sim")
        assert sync_state == sim_state

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_flash_crowd_converges_identically(self, topology):
        scenario = sensor_network_scenario(
            num_subscriptions=30, num_events=12, order=8, seed=11
        )
        script = flash_crowd_script(scenario, BROKER_IDS, seed=4)
        sync_state = lockstep_state(scenario, topology, script, "sync")
        sim_state = lockstep_state(scenario, topology, script, "sim")
        assert sync_state == sim_state

    def test_rolling_failures_equivalent_deliveries(self):
        """Crash recovery converges to *delivery-equivalent*, sound state.

        Strict state identity cannot hold across transports here: during
        ``recover_broker`` the synchronous transport delivers the neighbour
        promotions (triggered by the pre-reset flush) inline, before the
        recovering broker wipes its state, while the simulated transport
        delivers them after — so the recovering broker legitimately sees a
        different arrival order and may forward/suppress differently (both
        soundly).  What must agree is behaviour: after the scenario, every
        probe event reaches exactly the oracle set on both transports.
        """
        scenario = small_scenario()
        script = rolling_failures_script(scenario, BROKER_IDS, crash_ids=[2, 4], seed=6)
        import random

        from repro.pubsub.subscription import Event

        rng = random.Random(17)
        probes = [
            (
                Event(
                    scenario.schema,
                    {
                        name: rng.uniform(attr.low, attr.high)
                        for name, attr in zip(
                            scenario.schema.names,
                            (scenario.schema.attribute(n) for n in scenario.schema.names),
                        )
                    },
                    event_id=f"probe-{i}",
                ),
                rng.randrange(NUM_BROKERS),
            )
            for i in range(12)
        ]
        results = {}
        for kind in ("sync", "sim"):
            network = make_network(scenario, "tree", kind)
            run_scripted_lockstep(network, script)
            delivered = []
            for event, origin in probes:
                missed, extra = network.publish_and_audit(origin, event)
                assert missed == set() and extra == set(), (kind, event.event_id)
                delivered.append(frozenset(network.expected_recipients(event, origin=origin)))
            results[kind] = delivered
        assert results["sync"] == results["sim"]

    def test_lockstep_runner_counts_executed_actions(self):
        scenario = small_scenario()
        script = subscription_churn_script(scenario, BROKER_IDS, seed=3)
        network = make_network(scenario, "tree", "sync")
        executed = run_scripted_lockstep(network, script)
        assert executed == len(script)
