"""Partition-aware delivery auditing on the stock overlay shapes.

Crashing a cut vertex (the star hub, a chain midpoint) severs the acyclic
overlay into independent live components.  The paper's safety claim then
holds *per partition*: within each live component delivery must stay exact,
and once the crashed broker recovers (flush-and-refill resync) the audit must
be clean against the whole reconverged network.  Both the origin-restricted
``publish_and_audit`` and the component-sweeping
``publish_and_audit_partitions`` are exercised, across the synchronous and
simulated transports.
"""

from __future__ import annotations

import pytest

from repro.index.config import IndexConfig
from repro.pubsub.network import BrokerNetwork, chain_topology, star_topology
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription
from repro.sim import FixedLatency, SimTransport


@pytest.fixture
def schema():
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=8
    )


def make_transport(kind):
    if kind == "sync":
        return None  # BrokerNetwork defaults to SyncTransport
    return SimTransport(FixedLatency(0.1), seed=7)


def build(schema, topology, kind):
    return BrokerNetwork.from_topology(
        schema,
        topology,
        covering="approximate",
        config=IndexConfig(epsilon=0.1),
        seed=1,
        transport=make_transport(kind),
    )


def subscribe_everywhere(network, schema):
    """One matching subscriber per broker; returns the client ids by broker."""
    clients = {}
    for broker_id in sorted(network.brokers, key=str):
        client_id = f"client-{broker_id}"
        network.subscribe(
            broker_id,
            client_id,
            Subscription(schema, {"x": (0.0, 50.0)}, sub_id=f"sub-{broker_id}"),
        )
        clients[broker_id] = client_id
    network.flush()
    return clients


def matching_event(schema, event_id):
    return Event(schema, {"x": 25.0, "y": 10.0}, event_id=event_id)


@pytest.mark.parametrize("transport_kind", ["sync", "sim"])
class TestStarHubCrash:
    def test_partition_audit_and_reconvergence(self, schema, transport_kind):
        network = build(schema, star_topology(5), transport_kind)
        clients = subscribe_everywhere(network, schema)
        # Crash the hub: every leaf becomes its own singleton partition.
        network.crash_broker(0)
        components = network.live_components()
        assert components == [{1}, {2}, {3}, {4}]
        # Per-partition exactness via the origin-restricted audit: a leaf's
        # publish reaches exactly its own subscriber, nothing else.
        for leaf in (1, 2, 3, 4):
            missed, extra = network.publish_and_audit(
                leaf, matching_event(schema, f"split-{leaf}")
            )
            assert missed == set() and extra == set()
            assert network.expected_recipients(
                matching_event(schema, f"gt-{leaf}"), origin=leaf
            ) == {clients[leaf]}
        # The component sweep audits all partitions in one call.
        audits = network.publish_and_audit_partitions(
            [matching_event(schema, f"sweep-{i}") for i in range(len(components))]
        )
        assert len(audits) == 4
        assert all(audit.clean for audit in audits)
        # Heal: recover the hub, let resync propagate, audit the full overlay.
        network.recover_broker(0)
        network.flush()
        assert network.live_components() == [{0, 1, 2, 3, 4}]
        missed, extra = network.publish_and_audit(1, matching_event(schema, "healed"))
        assert missed == set() and extra == set()

    def test_partition_sweep_requires_enough_events(self, schema, transport_kind):
        network = build(schema, star_topology(4), transport_kind)
        subscribe_everywhere(network, schema)
        network.crash_broker(0)
        with pytest.raises(ValueError, match="one event per live component"):
            network.publish_and_audit_partitions([matching_event(schema, "only-one")])


@pytest.mark.parametrize("transport_kind", ["sync", "sim"])
class TestChainMidpointCrash:
    def test_partition_audit_and_reconvergence(self, schema, transport_kind):
        network = build(schema, chain_topology(7), transport_kind)
        clients = subscribe_everywhere(network, schema)
        # Crash the midpoint: two halves, each a live multi-broker partition.
        network.crash_broker(3)
        components = network.live_components()
        assert components == [{0, 1, 2}, {4, 5, 6}]
        for origin, component in ((1, {0, 1, 2}), (5, {4, 5, 6})):
            event = matching_event(schema, f"split-{origin}")
            expected = {clients[b] for b in component}
            assert network.expected_recipients(event, origin=origin) == expected
            missed, extra = network.publish_and_audit(origin, event)
            assert missed == set() and extra == set()
        audits = network.publish_and_audit_partitions(
            [matching_event(schema, "sweep-a"), matching_event(schema, "sweep-b")]
        )
        assert [audit.origin for audit in audits] == [0, 4]
        assert all(audit.clean for audit in audits)
        # Reconvergence: recover the midpoint and audit end to end — an event
        # published at one end must reach subscribers at the other again.
        network.recover_broker(3)
        network.flush()
        missed, extra = network.publish_and_audit(0, matching_event(schema, "healed"))
        assert missed == set() and extra == set()
        assert clients[6] in {
            record.client_id
            for record in network.deliveries
            if record.event_id == "healed"
        }

    def test_full_overlay_is_one_component(self, schema, transport_kind):
        network = build(schema, chain_topology(3), transport_kind)
        subscribe_everywhere(network, schema)
        audits = network.publish_and_audit_partitions(
            [matching_event(schema, "whole")]
        )
        assert len(audits) == 1
        assert audits[0].component == frozenset({0, 1, 2})
        assert audits[0].clean
