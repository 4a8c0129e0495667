"""Churn invariants: crash / recover / join must never lose survivors' events.

The paper's safety claim — covering-based suppression never loses an event —
is stressed here under broker churn: a broker crashes mid-run (losing all its
learnt routing and covering state), traffic continues, the broker recovers and
its neighbours replay the subscriptions they had forwarded on the link.  After
stabilisation the delivery audit must be clean for every surviving subscriber,
on tree, chain and star topologies, under both the synchronous and the
simulated transport.
"""

from __future__ import annotations

import pytest

from repro.index.config import IndexConfig
from repro.pubsub import (
    BrokerNetwork,
    Event,
    Subscription,
    chain_topology,
    star_topology,
    tree_topology,
)
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.sim import FixedLatency, SimTransport, SyncTransport

TOPOLOGIES = {
    "tree": tree_topology,
    "chain": chain_topology,
    "star": star_topology,
}
NUM_BROKERS = 7
#: A leaf broker in every 7-node topology above (tree: leaf, chain: end, star: spoke).
LEAF = NUM_BROKERS - 1


@pytest.fixture
def schema():
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=8
    )


def make_transport(kind):
    if kind == "sync":
        return SyncTransport()
    return SimTransport(FixedLatency(0.3), inbox_capacity=16, service_time=0.01, seed=11)


def populate(network, num_subs=21, num_brokers=NUM_BROKERS):
    for i in range(num_subs):
        lo = (i * 9) % 60
        network.subscribe(
            i % num_brokers,
            f"client-{i}",
            Subscription(network.schema, {"x": (float(lo), float(lo + 30))}, sub_id=f"s{i}"),
        )
    network.flush()


def audit_events(network, count, prefix, origins=None):
    """Publish ``count`` events and assert zero missed for reachable survivors."""
    for j in range(count):
        origin = (origins or list(range(NUM_BROKERS)))[j % (len(origins) if origins else NUM_BROKERS)]
        event = Event(
            network.schema, {"x": (j * 13.0) % 100, "y": 10.0}, event_id=f"{prefix}-{j}"
        )
        missed, _extra = network.publish_and_audit(origin, event)
        assert missed == set(), f"{prefix}: event {j} lost {missed}"


class TestCrashRecoverLeaf:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("transport_kind", ["sync", "sim"])
    def test_leaf_crash_recover_audit_clean(self, schema, topology, transport_kind):
        network = BrokerNetwork.from_topology(
            schema,
            TOPOLOGIES[topology](NUM_BROKERS),
            covering="approximate",
            config=IndexConfig(),
            transport=make_transport(transport_kind),
        )
        populate(network)
        audit_events(network, 6, "pre-crash")

        network.crash_broker(LEAF)
        network.flush()
        assert not network.transport.is_up(LEAF)
        # The dead broker's clients drop out of the ground truth; survivors
        # must still get everything (publish only from live brokers).
        live_origins = [b for b in range(NUM_BROKERS) if b != LEAF]
        audit_events(network, 6, "during-crash", origins=live_origins)
        dead_clients = {client for client, _ in network.brokers[LEAF].local_subscriptions()}
        assert dead_clients
        event = Event(schema, {"x": 15.0, "y": 10.0}, event_id="no-dead-delivery")
        delivered = network.publish(0, event)
        assert delivered.isdisjoint(dead_clients)

        network.recover_broker(LEAF)
        network.flush()
        # After stabilisation nothing may be lost for anyone — including the
        # recovered broker's own subscribers.
        audit_events(network, 8, "post-recover")
        resynced = sum(b.stats.subscriptions_resynced for b in network.brokers.values())
        assert resynced > 0

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_subscriptions_made_during_downtime_reach_recovered_broker(
        self, schema, topology
    ):
        network = BrokerNetwork.from_topology(
            schema,
            TOPOLOGIES[topology](NUM_BROKERS),
            covering="approximate",
            config=IndexConfig(),
            transport=make_transport("sim"),
        )
        populate(network, num_subs=7)
        network.crash_broker(LEAF)
        network.flush()
        # A subscription registered while the leaf is down: the message chain
        # toward the leaf is dropped at the link, but the sender remembers it
        # as forwarded and replays it on recovery.
        network.subscribe(
            0, "latecomer", Subscription(schema, {"x": (60.0, 95.0)}, sub_id="late")
        )
        network.flush()
        network.recover_broker(LEAF)
        network.flush()
        # An event published *at the recovered leaf* must route back to the
        # downtime subscriber — only possible if the leaf rebuilt its tables.
        event = Event(schema, {"x": 80.0, "y": 50.0}, event_id="from-recovered")
        missed, extra = network.publish_and_audit(LEAF, event)
        assert missed == set() and extra == set()
        delivered = {r.client_id for r in network.deliveries if r.event_id == "from-recovered"}
        assert "latecomer" in delivered


class TestRecoveryFlushesStaleState:
    @pytest.mark.parametrize("transport_kind", ["sync", "sim"])
    def test_unsubscription_dropped_at_dead_broker_is_healed(self, schema, transport_kind):
        # S is withdrawn while the interior broker is down, so the withdrawal
        # never crosses it.  Flush-and-refill recovery retracts the dead
        # broker's pre-crash forwards before resyncing, so the far partition
        # does not keep ghost routing entries forever.
        network = BrokerNetwork.from_topology(
            schema,
            chain_topology(5),
            covering="approximate",
            transport=make_transport(transport_kind),
        )
        network.subscribe(0, "c", Subscription(schema, {"x": (0.0, 50.0)}, sub_id="S"))
        network.flush()
        network.crash_broker(2)
        network.flush()
        network.unsubscribe("c", "S")
        network.flush()
        network.recover_broker(2)
        network.flush()
        assert network.brokers[3].routing_table_size() == 0
        assert network.brokers[4].routing_table_size() == 0
        assert network.routing_table_entries() == 0
        # Events published in the healed far partition generate no traffic
        # toward the vanished subscriber.
        before = network.event_messages
        network.publish(4, Event(schema, {"x": 10.0, "y": 10.0}, event_id="post"))
        assert network.event_messages == before


class TestInternalCrash:
    def test_chain_partition_audit_restricted_to_reachable(self, schema):
        network = BrokerNetwork.from_topology(
            schema,
            chain_topology(5),
            covering="approximate",
            transport=make_transport("sim"),
        )
        for i in range(5):
            network.subscribe(
                i, f"client-{i}", Subscription(schema, {}, sub_id=f"s{i}")
            )
        network.flush()
        network.crash_broker(2)  # splits 0-1 from 3-4
        network.flush()
        assert network.reachable_brokers(0) == {0, 1}
        assert network.reachable_brokers(4) == {3, 4}
        event = Event(schema, {"x": 1.0, "y": 1.0}, event_id="partitioned")
        expected = network.expected_recipients(event, origin=0)
        assert expected == {"client-0", "client-1"}
        missed, extra = network.publish_and_audit(0, event)
        assert missed == set() and extra == set()
        network.recover_broker(2)
        network.flush()
        missed, extra = network.publish_and_audit(
            0, Event(schema, {"x": 2.0, "y": 2.0}, event_id="healed")
        )
        assert missed == set() and extra == set()


class TestJoin:
    @pytest.mark.parametrize("transport_kind", ["sync", "sim"])
    def test_joining_broker_serves_and_attracts_traffic(self, schema, transport_kind):
        network = BrokerNetwork.from_topology(
            schema,
            tree_topology(5),
            covering="approximate",
            config=IndexConfig(),
            transport=make_transport(transport_kind),
        )
        populate(network, num_subs=10, num_brokers=5)
        network.join_broker("late", attach_to=3)
        network.flush()
        # Events published at the new broker reach existing subscribers...
        missed, extra = network.publish_and_audit(
            "late", Event(schema, {"x": 20.0, "y": 10.0}, event_id="from-new")
        )
        assert missed == set() and extra == set()
        # ...and subscribers at the new broker receive remote publishes.
        network.subscribe(
            "late", "new-client", Subscription(schema, {"x": (0.0, 50.0)}, sub_id="new-sub")
        )
        network.flush()
        delivered = network.publish(0, Event(schema, {"x": 25.0, "y": 1.0}, event_id="to-new"))
        assert "new-client" in delivered

    def test_join_requires_live_attachment(self, schema):
        network = BrokerNetwork.from_topology(
            schema, tree_topology(3), transport=make_transport("sync")
        )
        network.crash_broker(2)
        with pytest.raises(ValueError):
            network.join_broker("late", attach_to=2)
        with pytest.raises(ValueError):
            network.join_broker("late", attach_to="ghost")


class TestChurnValidation:
    def test_crash_twice_rejected(self, schema):
        network = BrokerNetwork.from_topology(schema, tree_topology(3))
        network.crash_broker(2)
        with pytest.raises(ValueError):
            network.crash_broker(2)

    def test_recover_live_broker_rejected(self, schema):
        network = BrokerNetwork.from_topology(schema, tree_topology(3))
        with pytest.raises(ValueError):
            network.recover_broker(1)

    def test_operations_at_down_broker_rejected(self, schema):
        network = BrokerNetwork.from_topology(schema, tree_topology(3))
        network.subscribe(2, "c", Subscription(schema, {}, sub_id="s"))
        network.crash_broker(2)
        with pytest.raises(ValueError):
            network.subscribe(2, "c2", Subscription(schema, {}, sub_id="s2"))
        with pytest.raises(ValueError):
            network.publish(2, Event(schema, {"x": 1.0, "y": 1.0}))
        with pytest.raises(ValueError):
            network.unsubscribe("c", "s")

    def test_unknown_broker_rejected(self, schema):
        network = BrokerNetwork.from_topology(schema, tree_topology(3))
        with pytest.raises(ValueError):
            network.crash_broker("ghost")
        with pytest.raises(ValueError):
            network.recover_broker("ghost")
        with pytest.raises(ValueError):
            network.reachable_brokers("ghost")
