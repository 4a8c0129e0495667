"""Idempotence regressions for the subscription lifecycle.

The withdrawal/promotion machinery keeps per-link bookkeeping (forwarded ids,
suppressed set, cover/dependents maps); these tests pin the degenerate
sequences that historically corrupt such state: duplicate unsubscribe,
unsubscribe-before-subscribe, and re-subscribe-after-withdraw — on every
topology, through both the legacy per-subscription API and the batch API.
"""

from __future__ import annotations

import pytest

from repro.index.config import IndexConfig
from repro.pubsub.broker import LOCAL_INTERFACE
from repro.pubsub.network import (
    BrokerNetwork,
    chain_topology,
    star_topology,
    tree_topology,
)
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription

TOPOLOGIES = {
    "tree": tree_topology,
    "chain": chain_topology,
    "star": star_topology,
}


@pytest.fixture
def schema():
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=8
    )


def make_network(schema, topology, covering="approximate"):
    return BrokerNetwork.from_topology(
        schema, TOPOLOGIES[topology](5), covering=covering, config=IndexConfig()
    )


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("api", ["legacy", "batch"])
class TestLifecycleIdempotence:
    def _subscribe(self, network, api, broker_id, client_id, subscription):
        if api == "batch":
            network.subscribe_batch(broker_id, [(client_id, subscription)])
        else:
            network.subscribe(broker_id, client_id, subscription)

    def _unsubscribe(self, network, api, client_id, sub_id):
        if api == "batch":
            return network.unsubscribe_batch([(client_id, sub_id)])[0]
        return network.unsubscribe(client_id, sub_id)

    def test_duplicate_unsubscribe_is_noop(self, schema, topology, api):
        network = make_network(schema, topology)
        sub = Subscription(schema, {"x": (0.0, 50.0)}, sub_id="dup")
        self._subscribe(network, api, 1, "alice", sub)
        baseline = None
        assert self._unsubscribe(network, api, "alice", "dup") is True
        baseline = network.routing_state()
        # Second (and third) withdrawal: found-flag False, state untouched.
        assert self._unsubscribe(network, api, "alice", "dup") is False
        assert self._unsubscribe(network, api, "alice", "dup") is False
        assert network.routing_state() == baseline
        assert network.routing_table_entries() == 0

    def test_unsubscribe_before_subscribe_is_noop(self, schema, topology, api):
        network = make_network(schema, topology)
        baseline = network.routing_state()
        assert self._unsubscribe(network, api, "ghost", "never") is False
        assert network.routing_state() == baseline
        # A stray withdrawal reaching a broker directly is also harmless.
        broker = network.brokers[0]
        if api == "batch":
            assert broker.unsubscribe_batch([("ghost", "never")]) == [False]
        else:
            broker.receive_unsubscription(LOCAL_INTERFACE, "never")
        assert network.routing_state() == baseline
        # The network still works afterwards.
        sub = Subscription(schema, {"x": (0.0, 50.0)}, sub_id="s")
        self._subscribe(network, api, 3, "alice", sub)
        assert "alice" in network.publish(0, Event(schema, {"x": 10.0, "y": 10.0}))

    def test_resubscribe_after_withdraw_is_clean_reinstall(self, schema, topology, api):
        network = make_network(schema, topology)
        sub = Subscription(schema, {"x": (0.0, 50.0)}, sub_id="phoenix")
        self._subscribe(network, api, 2, "alice", sub)
        first_state = network.routing_state()
        assert self._unsubscribe(network, api, "alice", "phoenix") is True
        self._subscribe(network, api, 2, "alice", sub)
        # The reinstall reproduces the original state exactly...
        assert network.routing_state() == first_state
        # ...and a single withdrawal fully clears it again (no ghost refcount).
        assert self._unsubscribe(network, api, "alice", "phoenix") is True
        assert network.routing_table_entries() == 0
        assert "alice" not in network.publish(0, Event(schema, {"x": 10.0, "y": 10.0}))

    def test_covered_resubscribe_after_withdraw(self, schema, topology, api):
        """Withdraw and re-add a suppressed subscription: suppression state and
        the cover's dependents map must survive the round trip."""
        network = make_network(schema, topology)
        wide = Subscription(schema, {"x": (0.0, 90.0)}, sub_id="wide")
        narrow = Subscription(schema, {"x": (10.0, 20.0)}, sub_id="narrow")
        self._subscribe(network, api, 0, "w", wide)
        self._subscribe(network, api, 0, "n", narrow)
        suppressed_state = network.routing_state()
        assert self._unsubscribe(network, api, "n", "narrow") is True
        self._subscribe(network, api, 0, "n", narrow)
        assert network.routing_state() == suppressed_state
        # The dependents hand-off still promotes narrow when wide goes away.
        assert self._unsubscribe(network, api, "w", "wide") is True
        delivered = network.publish(4, Event(schema, {"x": 15.0, "y": 5.0}))
        assert delivered == {"n"}


@pytest.mark.usefixtures("table_path")
@pytest.mark.parametrize("api", ["legacy", "batch"])
class TestLiveIdIsOneClientsOneRectangle:
    """A live subscription id names one client's one rectangle at one broker.

    Tables, profiles and forwarded sets all key on the id.  Before the check
    in ``BrokerNetwork._admit`` a reused id silently replaced the first
    rectangle in the local table while the links kept routing by it (bob
    missed his events), and a repeated subscribe left a second entry that one
    withdrawal did not remove (alice kept receiving hers).
    """

    def _network(self, schema):
        return BrokerNetwork.from_topology(schema, chain_topology(3), covering="approximate")

    def _subscribe(self, network, api, broker_id, client_id, subscription):
        if api == "batch":
            network.subscribe_batch(broker_id, [(client_id, subscription)])
        else:
            network.subscribe(broker_id, client_id, subscription)

    def test_reused_live_id_is_rejected_with_nothing_changed(self, schema, api):
        network = self._network(schema)
        first = Subscription(schema, {"x": (0.0, 50.0)}, sub_id="same")
        self._subscribe(network, api, 0, "alice", first)
        state, messages = network.routing_state(), network.subscription_messages
        other_ranges = Subscription(schema, {"x": (60.0, 90.0)}, sub_id="same")
        for broker_id, client_id, subscription in (
            (0, "bob", other_ranges),  # another client
            (0, "alice", other_ranges),  # other ranges
            (2, "alice", first),  # another broker
        ):
            with pytest.raises(ValueError, match="already live"):
                self._subscribe(network, api, broker_id, client_id, subscription)
        assert network.routing_state() == state
        assert network.subscription_messages == messages
        assert network.subscription_home("same") == 0
        assert [client for client, _ in network.brokers[0].local_subscriptions()] == ["alice"]
        inside_first = Event(schema, {"x": 10.0, "y": 5.0})
        inside_other = Event(schema, {"x": 70.0, "y": 5.0})
        assert network.publish_and_audit(2, inside_first) == (set(), set())
        assert network.publish_and_audit(2, inside_other) == (set(), set())
        assert network.publish(2, inside_first) == {"alice"}
        # Withdrawing frees the id: bob's rectangle is then routed by its own geometry.
        assert network.unsubscribe("alice", "same") is True
        self._subscribe(network, api, 0, "bob", other_ranges)
        assert network.publish_and_audit(2, inside_other) == (set(), set())
        assert network.publish(2, inside_other) == {"bob"}
        assert network.publish(2, inside_first) == set()

    def test_repeated_subscribe_leaves_no_ghost(self, schema, api):
        network = self._network(schema)
        sub = Subscription(schema, {"x": (0.0, 50.0)}, sub_id="dup")
        self._subscribe(network, api, 0, "alice", sub)
        state, messages = network.routing_state(), network.subscription_messages
        self._subscribe(network, api, 0, "alice", sub)
        # An equal rectangle under the same id is the same subscription too.
        self._subscribe(network, api, 0, "alice", Subscription(schema, {"x": (0.0, 50.0)}, sub_id="dup"))
        assert network.routing_state() == state
        assert network.subscription_messages == messages
        inside = Event(schema, {"x": 10.0, "y": 5.0})
        assert network.publish(1, inside) == {"alice"}
        assert [record.client_id for record in network.deliveries] == ["alice"]
        assert network.unsubscribe("alice", "dup") is True
        for origin in (0, 1, 2):
            assert network.publish_and_audit(origin, Event(schema, {"x": 10.0, "y": 5.0})) == (
                set(), set()
            )
        assert network.routing_table_entries() == 0
        assert network.unsubscribe("alice", "dup") is False

    def test_a_batch_is_checked_whole_before_anything_registers(self, schema, api):
        network = self._network(schema)
        network.subscribe(0, "alice", Subscription(schema, {"x": (0.0, 50.0)}, sub_id="same"))
        state = network.routing_state()
        fine = Subscription(schema, {"x": (20.0, 30.0)}, sub_id="fine")
        clash = Subscription(schema, {"x": (60.0, 90.0)}, sub_id="same")
        twice = Subscription(schema, {"x": (1.0, 2.0)}, sub_id="fine")
        for items in (
            [("carol", fine), ("bob", clash)],  # clashes with a live id
            [("carol", fine), ("dave", twice)],  # clashes inside the batch
        ):
            with pytest.raises(ValueError):
                network.subscribe_batch(0, items)
            assert network.routing_state() == state
            assert network.subscription_home("fine") is None
        # The same checks guard a broker driven directly.
        broker = network.brokers[0]
        with pytest.raises(ValueError, match="already live"):
            broker.subscribe_local("bob", clash)
        with pytest.raises(ValueError):
            broker.subscribe_batch([("carol", fine), ("bob", clash)])
        with pytest.raises(ValueError, match="already live"):
            broker.subscribe_batch([("carol", fine), ("dave", twice)])
        assert network.routing_state() == state
        assert [client for client, _ in broker.local_subscriptions()] == ["alice"]
        # A repeat inside a batch is dropped, the rest goes through.
        network.subscribe_batch(0, [("carol", fine), ("carol", fine)])
        assert [client for client, _ in broker.local_subscriptions()] == ["alice", "carol"]
        assert network.unsubscribe("carol", "fine") is True
        assert network.routing_state() == state


@pytest.mark.parametrize("api", ["legacy", "batch"])
class TestClientAtSeveralBrokers:
    """A client may hold live subscriptions at several brokers at once.

    Withdrawals and the audit's ground truth look each subscription up where
    it was registered.  While the network kept one home broker per client,
    the client's later subscribe moved that home: withdrawing the first
    subscription went to the wrong broker and returned False (its events
    kept arriving), and the ground truth placed every subscription of the
    client at the last broker.
    """

    def _network(self, schema):
        network = BrokerNetwork.from_topology(schema, chain_topology(3), covering="approximate")
        network.subscribe(0, "alice", Subscription(schema, {"x": (0.0, 30.0)}, sub_id="a"))
        network.subscribe(2, "alice", Subscription(schema, {"x": (60.0, 90.0)}, sub_id="b"))
        return network

    def _unsubscribe(self, network, api, client_id, sub_id):
        if api == "batch":
            return network.unsubscribe_batch([(client_id, sub_id)])[0]
        return network.unsubscribe(client_id, sub_id)

    def test_first_subscription_can_be_withdrawn(self, schema, api):
        network = self._network(schema)
        in_a = Event(schema, {"x": 10.0, "y": 5.0})
        in_b = Event(schema, {"x": 70.0, "y": 5.0})
        assert network.publish(1, in_a) == network.publish(1, in_b) == {"alice"}
        assert self._unsubscribe(network, api, "alice", "a") is True
        assert network.publish(1, in_a) == set()
        assert network.publish(1, in_b) == {"alice"}
        assert network.subscription_home("a") is None
        assert network.subscription_home("b") == 2
        for origin in (0, 1, 2):
            assert network.publish_and_audit(origin, in_a) == (set(), set())
            assert network.publish_and_audit(origin, in_b) == (set(), set())
        assert self._unsubscribe(network, api, "alice", "a") is False
        assert self._unsubscribe(network, api, "alice", "b") is True
        assert network.routing_table_entries() == 0

    def test_ground_truth_places_each_subscription_at_its_broker(self, schema, api):
        network = self._network(schema)
        network.crash_broker(2)
        in_a = Event(schema, {"x": 10.0, "y": 5.0})
        in_b = Event(schema, {"x": 70.0, "y": 5.0})
        assert network.expected_recipients(in_a, origin=0) == {"alice"}
        assert network.expected_recipients(in_b, origin=0) == set()
        assert network.publish_and_audit(0, in_a) == (set(), set())
        assert network.publish_and_audit(0, in_b) == (set(), set())
        # The live subscription is withdrawn at its own, live broker; the one
        # at the crashed broker cannot be.
        assert self._unsubscribe(network, api, "alice", "a") is True
        with pytest.raises(ValueError, match="down"):
            self._unsubscribe(network, api, "alice", "b")

    def test_batch_withdrawal_groups_by_each_subscriptions_broker(self, schema, api):
        network = self._network(schema)
        network.subscribe(1, "bob", Subscription(schema, {"x": (40.0, 50.0)}, sub_id="c"))
        pairs = [("alice", "b"), ("bob", "c"), ("alice", "a"), ("bob", "a")]
        if api == "batch":
            flags = network.unsubscribe_batch(pairs)
        else:
            flags = [network.unsubscribe(client, sub_id) for client, sub_id in pairs]
        assert flags == [True, True, True, False]
        assert network.routing_table_entries() == 0
        for broker in network.brokers.values():
            assert broker.local_subscriptions() == []
