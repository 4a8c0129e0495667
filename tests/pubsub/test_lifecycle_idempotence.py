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


def make_network(schema, topology, covering="exact"):
    return BrokerNetwork.from_topology(
        schema, TOPOLOGIES[topology](5), covering=covering, config=IndexConfig(epsilon=0.1)
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
        # A stray withdrawal arriving on a broker interface is also harmless.
        broker = network.brokers[0]
        if api == "batch":
            broker.receive_unsubscription_batch(LOCAL_INTERFACE, ["never"])
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
