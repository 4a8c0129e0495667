"""The per-broker subscription store follows the routing table's contents.

A broker acquires a subscription's profile when an interface table stores it
and releases it when the table drops it; crash recovery wipes the store with
the tables.  The store is reference-counted, so a subscription held on two
interfaces of one broker is forgotten only when both have dropped it.
"""

from __future__ import annotations

from unittest.mock import patch

from repro.pubsub.broker import Broker
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.pubsub.subscription_store import SubscriptionProfile, SubscriptionStore
from test_covering_properties import SCHEMA, rect_subscription


def test_acquire_and_release_count_holders():
    store = SubscriptionStore()
    subscription = rect_subscription(((1, 5), (2, 9)), "s")
    first = store.acquire(subscription)
    assert first == SubscriptionProfile(subscription, ((1, 5), (2, 9)))
    assert store.acquire(subscription) is first
    assert store.release("s") and "s" in store
    assert store.release("s") and "s" not in store and len(store) == 0
    assert not store.release("s")  # an unknown id is a no-op


def test_a_broker_holds_what_its_tables_hold():
    broker = Broker(broker_id=0, schema=SCHEMA)
    subscription = rect_subscription(((1, 5), (2, 9)), "s")
    broker.receive_subscription("left", subscription)
    broker.receive_subscription("right", subscription)
    broker.receive_subscription("right", subscription)  # a repeat stores nothing
    assert broker.stats.subscriptions_stored == 2
    broker.receive_unsubscription("left", "s")
    assert "s" in broker._store
    broker.receive_unsubscription("right", "s")
    assert "s" not in broker._store
    broker.receive_subscription("left", subscription)
    broker.reset_routing_state()
    assert len(broker._store) == 0


def test_one_acquire_per_subscription_a_broker_stores():
    """The trace target ``SubscriptionStore.acquire`` runs once per stored arrival."""
    acquired = []
    acquire = SubscriptionStore.acquire

    def counting(store, subscription):
        acquired.append(subscription.sub_id)
        return acquire(store, subscription)

    network = BrokerNetwork.from_topology(SCHEMA, tree_topology(5), covering="approximate")
    with patch.object(SubscriptionStore, "acquire", counting):
        network.subscribe(0, "a", rect_subscription(((0, 60), (0, 60)), "wide"))
        network.subscribe(3, "b", rect_subscription(((10, 20), (10, 20)), "narrow"))
    stored = sum(broker.stats.subscriptions_stored for broker in network.brokers.values())
    assert len(acquired) == stored
    assert sum(len(broker._store) for broker in network.brokers.values()) == stored
