"""Three-way transport equivalence: sync ≡ sim ≡ net routing machines.

Extends the sync/sim lockstep pin (``tests/pubsub/test_transport_equivalence``)
to the networked transport: the same scripted scenario, run in lockstep, must
leave byte-identical normalised routing state whether messages are delivered
inline, through the discrete-event kernel, or over real loopback TCP sockets
speaking the versioned wire protocol.  Crash/recovery scripts are pinned at
the delivery level (audit-clean probes with identical recipient sets): strict
state identity across transports cannot hold there — see the sync/sim suite's
``test_rolling_failures_equivalent_deliveries`` docstring.
"""

from __future__ import annotations

import random

import pytest

from repro.index.config import IndexConfig
from repro.net import NetTransport
from repro.pubsub.network import (
    BrokerNetwork,
    chain_topology,
    star_topology,
    tree_topology,
)
from repro.pubsub.subscription import Event
from repro.sim.latency import UniformJitterLatency
from repro.sim.transport import SimTransport
from repro.workloads.dynamics import (
    flash_crowd_script,
    rolling_failures_script,
    run_scripted_lockstep,
    subscription_churn_script,
)
from repro.workloads.scenarios import sensor_network_scenario, stock_market_scenario

NUM_BROKERS = 5
BROKER_IDS = list(range(NUM_BROKERS))
TRANSPORTS = ("sync", "sim", "net")

TOPOLOGIES = {
    "tree": tree_topology,
    "chain": chain_topology,
    "star": star_topology,
}


def small_scenario():
    return stock_market_scenario(num_subscriptions=24, num_events=10, order=8, seed=7)


def make_network(scenario, topology, transport_kind):
    if transport_kind == "sim":
        transport = SimTransport(UniformJitterLatency(0.05, 0.2), seed=5)
    elif transport_kind == "net":
        transport = NetTransport()
    else:
        transport = None
    return BrokerNetwork.from_topology(
        scenario.schema,
        TOPOLOGIES[topology](NUM_BROKERS),
        covering="approximate",
        config=IndexConfig(),
        transport=transport,
    )


def lockstep_state(scenario, topology, script, transport_kind):
    network = make_network(scenario, topology, transport_kind)
    try:
        run_scripted_lockstep(network, script)
        return network.routing_state()
    finally:
        if transport_kind == "net":
            network.transport.close()


class TestThreeWayEquivalence:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_churn_storm_converges_identically(self, topology):
        scenario = small_scenario()
        script = subscription_churn_script(
            scenario, BROKER_IDS, join_broker=NUM_BROKERS, seed=3
        )
        states = {
            kind: lockstep_state(scenario, topology, script, kind)
            for kind in TRANSPORTS
        }
        assert states["sync"] == states["sim"] == states["net"]

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_flash_crowd_converges_identically(self, topology):
        scenario = sensor_network_scenario(
            num_subscriptions=18, num_events=8, order=8, seed=11
        )
        script = flash_crowd_script(scenario, BROKER_IDS, seed=4)
        states = {
            kind: lockstep_state(scenario, topology, script, kind)
            for kind in TRANSPORTS
        }
        assert states["sync"] == states["sim"] == states["net"]

    def test_rolling_failures_equivalent_deliveries(self):
        """Mid-script crash/recover: all three transports deliver identically.

        After the crash/recover script settles, every probe event must reach
        exactly the oracle set (audit-clean) on sync, sim and net, and the
        per-probe recipient sets must agree across the three transports.
        """
        scenario = small_scenario()
        script = rolling_failures_script(scenario, BROKER_IDS, crash_ids=[1, 3], seed=6)
        rng = random.Random(17)
        probes = [
            (
                Event(
                    scenario.schema,
                    {
                        name: rng.uniform(
                            scenario.schema.attribute(name).low,
                            scenario.schema.attribute(name).high,
                        )
                        for name in scenario.schema.names
                    },
                    event_id=f"probe-{i}",
                ),
                rng.randrange(NUM_BROKERS),
            )
            for i in range(8)
        ]
        results = {}
        for kind in TRANSPORTS:
            network = make_network(scenario, "tree", kind)
            try:
                run_scripted_lockstep(network, script)
                delivered = []
                for event, origin in probes:
                    missed, extra = network.publish_and_audit(origin, event)
                    assert missed == set() and extra == set(), (kind, event.event_id)
                    delivered.append(
                        frozenset(network.expected_recipients(event, origin=origin))
                    )
                results[kind] = delivered
            finally:
                if kind == "net":
                    network.transport.close()
        assert results["sync"] == results["sim"] == results["net"]


class TestNetTransportBehaviour:
    def test_messages_cross_real_sockets(self):
        scenario = small_scenario()
        network = make_network(scenario, "tree", "net")
        transport = network.transport
        try:
            sub = scenario.subscriptions[0]
            from repro.pubsub.subscription import Subscription

            network.subscribe(
                2, "alice", Subscription(scenario.schema, sub, sub_id="a1")
            )
            network.flush()
            # The subscription propagated over TCP: frames were sent and
            # landed, and every broker got its own server.
            assert transport.stats.messages_sent > 0
            assert transport.stats.messages_delivered > 0
            assert set(transport.addresses()) == set(network.brokers)
            ports = {port for _, port in transport.addresses().values()}
            assert len(ports) == len(network.brokers)  # one distinct port each
        finally:
            transport.close()

    def test_sends_to_down_broker_are_dropped_not_hung(self):
        scenario = small_scenario()
        network = make_network(scenario, "chain", "net")
        transport = network.transport
        try:
            from repro.pubsub.subscription import Subscription

            network.subscribe(
                4, "edge", Subscription(scenario.schema, {"price": (0.0, 500.0)}, sub_id="s")
            )
            network.flush()
            network.crash_broker(4)
            dropped_before = transport.stats.messages_dropped
            event = Event(
                scenario.schema,
                {"price": 100.0, "volume": 10.0, "change_pct": 0.0},
                event_id="e-down",
            )
            delivered = network.publish(0, event)  # must not deadlock the flush
            assert "edge" not in delivered
            assert transport.stats.messages_dropped > dropped_before
        finally:
            transport.close()

    def test_send_after_close_rejected(self):
        scenario = small_scenario()
        network = make_network(scenario, "chain", "net")
        network.transport.close()
        with pytest.raises(RuntimeError, match="closed"):
            network.transport.send("unsubscription", 0, 1, "s")
