"""Tests for subscription withdrawal under covering-based propagation.

The delicate case: a withdrawn subscription may have been *covering* other
subscriptions on some link, so those must be (re)forwarded there, otherwise
downstream brokers stop routing events the remaining subscribers still need.
"""

from __future__ import annotations

import random

import pytest

from repro.index.config import IndexConfig
from repro.pubsub.broker import LOCAL_INTERFACE
from repro.pubsub.network import BrokerNetwork, chain_topology, tree_topology
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription


@pytest.fixture
def schema():
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=8
    )


def make_network(schema, covering="approximate", brokers=4):
    return BrokerNetwork.from_topology(
        schema, chain_topology(brokers), covering=covering,
        config=IndexConfig()
    )


class TestBasicUnsubscription:
    @pytest.mark.parametrize("covering", ["none", "approximate"])
    def test_unsubscribed_client_stops_receiving(self, schema, covering):
        network = make_network(schema, covering)
        sub = Subscription(schema, {"x": (0.0, 50.0)}, sub_id="s")
        network.subscribe(3, "alice", sub)
        assert "alice" in network.publish(0, Event(schema, {"x": 10.0, "y": 10.0}))
        assert network.unsubscribe("alice", "s")
        assert "alice" not in network.publish(0, Event(schema, {"x": 10.0, "y": 10.0}))

    def test_unsubscribe_unknown_returns_false(self, schema):
        network = make_network(schema)
        assert not network.unsubscribe("ghost", "nope")
        network.subscribe(0, "alice", Subscription(schema, {}, sub_id="s"))
        assert not network.unsubscribe("alice", "other")

    def test_unsubscribe_propagates_removal_messages(self, schema):
        network = make_network(schema, covering="none")
        network.subscribe(0, "alice", Subscription(schema, {}, sub_id="s"))
        assert network.unsubscription_messages == 0
        network.unsubscribe("alice", "s")
        assert network.unsubscription_messages == 3  # down the 4-broker chain

    def test_withdrawn_client_keeps_only_earlier_deliveries(self, schema):
        network = make_network(schema)
        network.subscribe(3, "alice", Subscription(schema, {"x": (0.0, 50.0)}, sub_id="s"))
        network.publish(0, Event(schema, {"x": 10.0, "y": 10.0}, event_id="before"))
        assert network.unsubscribe("alice", "s")
        network.publish(0, Event(schema, {"x": 10.0, "y": 10.0}, event_id="after"))
        assert [r.event_id for r in network.deliveries if r.client_id == "alice"] == ["before"]


class TestCoveringAwareWithdrawal:
    @pytest.mark.parametrize("covering", ["none", "approximate"])
    def test_covered_subscription_reforwarded_after_cover_withdrawn(self, schema, covering):
        """The classic hazard: wide sub suppressed narrow sub's propagation; when the
        wide one goes away the narrow one must be re-forwarded so its subscriber
        keeps receiving events."""
        network = make_network(schema, covering)
        wide = Subscription(schema, {"x": (0.0, 90.0)}, sub_id="wide")
        narrow = Subscription(schema, {"x": (10.0, 20.0)}, sub_id="narrow")
        network.subscribe(0, "wide-client", wide)
        network.subscribe(0, "narrow-client", narrow)
        if covering == "approximate":
            assert not network.brokers[0].has_forwarded(1, "narrow")

        # Both clients currently receive matching events published remotely.
        delivered = network.publish(3, Event(schema, {"x": 15.0, "y": 5.0}))
        assert {"wide-client", "narrow-client"} <= delivered

        assert network.unsubscribe("wide-client", "wide")

        # The narrow subscription must now be known downstream again.
        delivered = network.publish(3, Event(schema, {"x": 15.0, "y": 5.0}))
        assert "narrow-client" in delivered
        assert "wide-client" not in delivered
        if covering == "approximate":
            assert network.brokers[0].has_forwarded(1, "narrow")

    def test_withdrawing_narrow_subscription_leaves_wide_intact(self, schema):
        network = make_network(schema, covering="approximate")
        network.subscribe(0, "wide-client", Subscription(schema, {"x": (0.0, 90.0)}, sub_id="wide"))
        network.subscribe(0, "narrow-client", Subscription(schema, {"x": (10.0, 20.0)}, sub_id="narrow"))
        assert network.unsubscribe("narrow-client", "narrow")
        delivered = network.publish(3, Event(schema, {"x": 15.0, "y": 5.0}))
        assert delivered == {"wide-client"}

    def test_chain_of_covers_unwinds_correctly(self, schema):
        """wide ⊇ mid ⊇ narrow: withdrawing wide re-forwards mid (which still covers narrow)."""
        network = make_network(schema, covering="approximate")
        network.subscribe(0, "c-wide", Subscription(schema, {"x": (0.0, 90.0)}, sub_id="wide"))
        network.subscribe(0, "c-mid", Subscription(schema, {"x": (5.0, 60.0)}, sub_id="mid"))
        network.subscribe(0, "c-narrow", Subscription(schema, {"x": (10.0, 20.0)}, sub_id="narrow"))
        network.unsubscribe("c-wide", "wide")
        assert network.brokers[0].has_forwarded(1, "mid")
        assert not network.brokers[0].has_forwarded(1, "narrow")
        delivered = network.publish(3, Event(schema, {"x": 15.0, "y": 5.0}))
        assert {"c-mid", "c-narrow"} <= delivered

    @pytest.mark.parametrize("covering", ["none", "approximate"])
    def test_chained_covers_withdraw_outermost(self, schema, covering):
        """A ⊇ B ⊇ C: withdrawing A must re-forward B downstream; C stays
        suppressed because B still covers it, and nobody loses events."""
        network = make_network(schema, covering)
        broker0 = network.brokers[0]
        network.subscribe(0, "c-a", Subscription(schema, {"x": (0.0, 90.0)}, sub_id="A"))
        network.subscribe(0, "c-b", Subscription(schema, {"x": (5.0, 60.0)}, sub_id="B"))
        network.subscribe(0, "c-c", Subscription(schema, {"x": (10.0, 20.0)}, sub_id="C"))
        if covering == "approximate":
            assert broker0.has_forwarded(1, "A")
            assert not broker0.has_forwarded(1, "B")
            assert not broker0.has_forwarded(1, "C")

        assert network.unsubscribe("c-a", "A")

        assert not broker0.has_forwarded(1, "A")
        if covering == "approximate":
            assert broker0.has_forwarded(1, "B")
            assert not broker0.has_forwarded(1, "C")
        missed, extra = network.publish_and_audit(3, Event(schema, {"x": 15.0, "y": 5.0}))
        assert missed == set()
        assert extra == set()

    def test_suppressed_then_reforwarded_stats(self, schema):
        """The suppression and re-forwarding of a covered subscription must be
        visible in the broker counters, and the suppressed set must drain."""
        network = make_network(schema, covering="approximate")
        broker0 = network.brokers[0]
        network.subscribe(0, "w", Subscription(schema, {"x": (0.0, 90.0)}, sub_id="wide"))
        network.subscribe(0, "n", Subscription(schema, {"x": (10.0, 20.0)}, sub_id="narrow"))
        assert broker0.stats.subscriptions_suppressed == 1
        assert broker0.stats.subscriptions_forwarded == 1
        assert "narrow" in broker0._links[1].suppressed

        assert network.unsubscribe("w", "wide")

        # The withdrawal re-forwarded the narrow subscription: the cumulative
        # forwarded counter grows, the suppressed counter does not shrink
        # (it counts suppression events), and the pending set is drained.
        assert broker0.stats.subscriptions_forwarded == 2
        assert broker0.stats.subscriptions_suppressed == 1
        assert broker0._links[1].suppressed == {}
        assert broker0.has_forwarded(1, "narrow")

    def test_duplicate_subscription_arrival_is_idempotent(self, schema):
        """Regression: a duplicate arrival of an already-forwarded sub_id used
        to call strategy.add again and re-send the subscription downstream."""
        network = make_network(schema, covering="approximate", brokers=2)
        broker0 = network.brokers[0]
        sub = Subscription(schema, {"x": (0.0, 50.0)}, sub_id="dup")
        broker0.receive_subscription(LOCAL_INTERFACE, sub)
        assert network.subscription_messages == 1
        broker0.receive_subscription(LOCAL_INTERFACE, sub)
        assert network.subscription_messages == 1
        assert broker0.stats.subscriptions_forwarded == 1

        # A single withdrawal must fully clear the forwarded state: no ghost
        # entry may survive in the covering strategy to suppress later
        # subscriptions it no longer represents.
        broker0.receive_unsubscription(LOCAL_INTERFACE, "dup")
        assert not broker0.has_forwarded(1, "dup")
        covered = Subscription(schema, {"x": (10.0, 20.0)}, sub_id="later")
        broker0.receive_subscription(LOCAL_INTERFACE, covered)
        assert broker0.has_forwarded(1, "later")

    @pytest.mark.parametrize("covering", ["none", "approximate"])
    def test_random_churn_never_loses_events(self, schema, covering):
        """Randomised subscribe/unsubscribe churn with delivery audit after every step."""
        rng = random.Random(31)
        network = BrokerNetwork.from_topology(
            schema, tree_topology(5), covering=covering,
            config=IndexConfig()
        )
        live: dict[str, Subscription] = {}
        counter = 0
        for step in range(60):
            if rng.random() < 0.6 or not live:
                lo_x, lo_y = rng.uniform(0, 70), rng.uniform(0, 70)
                sub = Subscription(
                    schema,
                    {"x": (lo_x, lo_x + rng.uniform(5, 30)), "y": (lo_y, lo_y + rng.uniform(5, 30))},
                    sub_id=f"sub-{counter}",
                )
                client = f"client-{counter}"
                counter += 1
                live[client] = sub
                network.subscribe(rng.randrange(5), client, sub)
            else:
                client = rng.choice(list(live))
                sub = live.pop(client)
                assert network.unsubscribe(client, sub.sub_id)
            if step % 5 == 0:
                event = Event(schema, {"x": rng.uniform(0, 100), "y": rng.uniform(0, 100)})
                missed, extra = network.publish_and_audit(rng.randrange(5), event)
                assert missed == set()
                assert extra == set()
