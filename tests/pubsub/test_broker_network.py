"""Tests for brokers, the overlay network, propagation and event delivery."""

from __future__ import annotations

import random

import pytest

from repro.index.config import IndexConfig
from repro.obs.trace import TraceLog
from repro.pubsub.broker import Broker
from repro.pubsub.client import Publisher, Subscriber
from repro.pubsub.network import (
    BrokerNetwork,
    chain_topology,
    star_topology,
    tree_topology,
)
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription
from repro.sim.latency import UniformJitterLatency
from repro.sim.transport import SimTransport
from repro.workloads.scenarios import stock_market_scenario


@pytest.fixture
def schema():
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=8
    )


def make_network(schema, covering="exact", num_brokers=5, epsilon=0.1):
    return BrokerNetwork.from_topology(
        schema, chain_topology(num_brokers), covering=covering,
        config=IndexConfig(epsilon=epsilon), seed=1
    )


class TestTopologyHelpers:
    def test_tree(self):
        edges = tree_topology(7, branching=2)
        assert len(edges) == 6
        assert (0, 1) in edges and (0, 2) in edges

    def test_chain(self):
        assert chain_topology(4) == [(0, 1), (1, 2), (2, 3)]

    def test_star(self):
        assert star_topology(4) == [(0, 1), (0, 2), (0, 3)]

    @pytest.mark.parametrize("builder", [tree_topology, chain_topology, star_topology])
    @pytest.mark.parametrize("num_brokers", [0, -3])
    def test_builders_require_positive_brokers(self, builder, num_brokers):
        # All three builders validate consistently: a non-positive broker
        # count raises instead of silently returning an empty edge list.
        with pytest.raises(ValueError):
            builder(num_brokers)

    @pytest.mark.parametrize("builder", [tree_topology, chain_topology, star_topology])
    def test_single_broker_topology_has_no_edges(self, builder):
        assert builder(1) == []

    @pytest.mark.parametrize("branching", [0, -2])
    def test_tree_rejects_non_positive_branching(self, branching):
        # Regression: branching=0 used to raise ZeroDivisionError and a
        # negative branching silently produced bogus parent indices.
        with pytest.raises(ValueError, match="branching"):
            tree_topology(7, branching=branching)

    def test_tree_branching_one_is_a_chain(self):
        assert tree_topology(4, branching=1) == chain_topology(4)


class TestNetworkConstruction:
    def test_from_topology(self, schema):
        network = make_network(schema)
        assert len(network.brokers) == 5
        assert sorted(network.brokers[1].neighbors) == [0, 2]

    def test_duplicate_broker_rejected(self, schema):
        network = BrokerNetwork(schema)
        network.add_broker("a")
        with pytest.raises(ValueError):
            network.add_broker("a")

    def test_cycle_rejected(self, schema):
        network = BrokerNetwork(schema)
        for name in "abc":
            network.add_broker(name)
        network.connect("a", "b")
        network.connect("b", "c")
        with pytest.raises(ValueError):
            network.connect("c", "a")

    def test_connect_unknown_broker_rejected(self, schema):
        network = BrokerNetwork(schema)
        network.add_broker("a")
        with pytest.raises(ValueError):
            network.connect("a", "missing")

    def test_connect_idempotent(self, schema):
        network = BrokerNetwork(schema)
        network.add_broker("a")
        network.add_broker("b")
        network.connect("a", "b")
        network.connect("a", "b")
        assert network.brokers["a"].neighbors == ["b"]

    def test_empty_topology_builds_single_broker(self, schema):
        # Regression: this used to raise "topology has no edges" even though
        # tree/chain/star_topology(1) legitimately return an empty edge list.
        network = BrokerNetwork.from_topology(schema, [])
        assert set(network.brokers) == {0}

    @pytest.mark.parametrize("builder", [tree_topology, chain_topology, star_topology])
    def test_single_broker_topology_accepted(self, schema, builder):
        network = BrokerNetwork.from_topology(schema, builder(1))
        assert set(network.brokers) == {0}
        # The one-broker network is fully functional: subscribe, publish,
        # audit — all purely local.
        network.subscribe(0, "solo", Subscription(schema, {"x": (0.0, 50.0)}, sub_id="s"))
        event = Event(schema, {"x": 10.0, "y": 10.0}, event_id="e")
        assert network.publish(0, event) == {"solo"}
        missed, extra = network.publish_and_audit(0, Event(schema, {"x": 20.0, "y": 0.0}, event_id="e2"))
        assert missed == set() and extra == set()
        assert network.unsubscribe("solo", "s") is True
        assert network.publish(0, Event(schema, {"x": 10.0, "y": 0.0}, event_id="e3")) == set()

    @pytest.mark.parametrize("edges", [[], [(0, 1)]], ids=["1-broker", "2-broker"])
    def test_unknown_covering_kind_rejected_up_front(self, schema, edges):
        # Regression: with one broker no covering strategy is ever built, so
        # "bogus" used to subscribe and deliver; with two the ValueError
        # surfaced from connect() *after* graph.add_edge.
        with pytest.raises(ValueError, match="unknown covering strategy 'bogus'"):
            BrokerNetwork.from_topology(schema, edges, covering="bogus")
        with pytest.raises(ValueError, match="unknown covering strategy 'bogus'"):
            Broker(broker_id=0, schema=schema, covering="bogus")

    def test_rejected_broker_leaves_the_graph_unchanged(self, schema):
        network = BrokerNetwork.from_topology(schema, [(0, 1)])
        network.covering = "bogus"  # reaches Broker() through add_broker
        with pytest.raises(ValueError, match="unknown covering strategy"):
            network.join_broker(2, attach_to=0)
        assert set(network.brokers) == {0, 1}
        assert sorted(network.graph.nodes) == [0, 1]
        assert list(network.graph.edges) == [(0, 1)]
        assert network.brokers[0].neighbors == [1]

    def test_explicit_nodes_precreate_brokers(self, schema):
        network = BrokerNetwork.from_topology(schema, [("a", "b")], nodes=["z", "a"])
        assert set(network.brokers) == {"a", "b", "z"}
        # "z" is edge-less but live: a local publish still delivers locally.
        network.subscribe("z", "zoe", Subscription(schema, {"x": (0.0, 50.0)}, sub_id="zs"))
        assert network.publish("z", Event(schema, {"x": 1.0, "y": 1.0}, event_id="ze")) == {"zoe"}


class TestBrokerWithoutTransport:
    def test_subscription_without_transport_raises(self, schema):
        broker = Broker("lonely", schema, covering="none")
        broker.connect("ghost")
        with pytest.raises(RuntimeError):
            broker.receive_subscription("__local__", Subscription(schema, {}))

    def test_event_without_transport_raises(self, schema):
        broker = Broker("lonely", schema, covering="none")
        broker.connect("ghost")
        broker.routing_table.table("ghost").add(Subscription(schema, {}, sub_id="s"))
        with pytest.raises(RuntimeError):
            broker.receive_event("__local__", Event(schema, {"x": 1.0, "y": 1.0}))


class TestSubscriptionPropagation:
    def test_subscription_reaches_all_brokers_without_covering(self, schema):
        network = make_network(schema, covering="none")
        sub = Subscription(schema, {"x": (0.0, 50.0)}, sub_id="s")
        network.subscribe(0, "client", sub)
        # Every broker except the origin stores the subscription from its upstream neighbour.
        assert network.subscription_messages == 4
        for broker_id in range(1, 5):
            assert network.brokers[broker_id].routing_table_size() >= 1

    def test_covered_subscription_not_forwarded(self, schema):
        network = make_network(schema, covering="exact")
        wide = Subscription(schema, {"x": (0.0, 90.0)}, sub_id="wide")
        narrow = Subscription(schema, {"x": (10.0, 20.0)}, sub_id="narrow")
        network.subscribe(0, "c1", wide)
        messages_after_wide = network.subscription_messages
        network.subscribe(0, "c2", narrow)
        # The narrow subscription is covered by the wide one on every link out of broker 0.
        assert network.subscription_messages == messages_after_wide
        assert not network.brokers[0].has_forwarded(1, "narrow")
        assert network.brokers[0].stats.subscriptions_suppressed >= 1

    def test_uncovered_subscription_is_forwarded(self, schema):
        network = make_network(schema, covering="exact")
        network.subscribe(0, "c1", Subscription(schema, {"x": (10.0, 20.0)}, sub_id="narrow"))
        before = network.subscription_messages
        network.subscribe(0, "c2", Subscription(schema, {"x": (0.0, 90.0)}, sub_id="wide"))
        assert network.subscription_messages > before
        assert network.brokers[0].has_forwarded(1, "wide")

    def test_covering_spans_record_choices(self, schema):
        network = BrokerNetwork.from_topology(
            schema, chain_topology(2), covering="exact", tracing=TraceLog(seed=1)
        )
        network.subscribe(0, "c1", Subscription(schema, {"x": (0.0, 90.0)}, sub_id="wide"))
        network.subscribe(0, "c2", Subscription(schema, {"x": (1.0, 2.0)}, sub_id="narrow"))
        decisions = [
            (span.name, span.broker_id, span.parent,
             span.detail_dict()["decision"], span.detail_dict()["covered_by"])
            for span in network.tracing.spans(kind="covering")
        ]
        # Broker 1's only link is the one both arrived on: it decides nothing.
        assert decisions == [
            ("wide", 0, 1, "forwarded", ""),
            ("narrow", 0, 1, "suppressed", "wide"),
        ]
        stats = network.brokers[0].stats
        assert stats.subscriptions_forwarded == stats.subscriptions_suppressed == 1

    def test_routing_table_entries_shrink_with_covering(self, schema):
        rng = random.Random(3)
        subs = []
        for i in range(40):
            lo = rng.uniform(0, 50)
            hi = lo + rng.uniform(5, 50)
            subs.append(Subscription(schema, {"x": (lo, min(hi, 100.0))}, sub_id=f"s{i}"))
        sizes = {}
        for covering in ("none", "exact", "approximate"):
            network = BrokerNetwork.from_topology(
                schema, tree_topology(5), covering=covering,
                config=IndexConfig(epsilon=0.1, cube_budget=50_000)
            )
            for i, sub in enumerate(subs):
                fresh = Subscription(schema, sub.constraints, sub_id=sub.sub_id)
                network.subscribe(i % 5, f"client-{i}", fresh)
            sizes[covering] = network.routing_table_entries()
        assert sizes["exact"] <= sizes["none"]
        assert sizes["approximate"] <= sizes["none"]
        # Approximate covering is sound, so it can only miss suppressions, never
        # suppress more than exact covering does.
        assert sizes["approximate"] >= sizes["exact"]


class TestEventDelivery:
    @pytest.mark.parametrize("covering", ["none", "exact", "approximate"])
    def test_matching_subscriber_receives_event(self, schema, covering):
        network = make_network(schema, covering=covering)
        sub = Subscription(schema, {"x": (0.0, 50.0)}, sub_id="s")
        network.subscribe(4, "alice", sub)
        event = Event(schema, {"x": 25.0, "y": 60.0}, event_id="e1")
        delivered = network.publish(0, event)
        assert "alice" in delivered

    def test_non_matching_subscriber_does_not_receive(self, schema):
        network = make_network(schema)
        network.subscribe(4, "alice", Subscription(schema, {"x": (0.0, 10.0)}, sub_id="s"))
        delivered = network.publish(0, Event(schema, {"x": 80.0, "y": 60.0}))
        assert delivered == set()

    def test_local_delivery_without_forwarding(self, schema):
        network = make_network(schema)
        network.subscribe(2, "bob", Subscription(schema, {}, sub_id="all"))
        delivered = network.publish(2, Event(schema, {"x": 1.0, "y": 1.0}))
        assert delivered == {"bob"}

    def test_event_not_flooded_to_uninterested_brokers(self, schema):
        network = make_network(schema, covering="none")
        network.subscribe(1, "alice", Subscription(schema, {"x": (0.0, 10.0)}, sub_id="s"))
        network.publish(0, Event(schema, {"x": 90.0, "y": 50.0}))
        # Broker 3 and 4 should never see the event: no matching subscription upstream.
        assert network.brokers[3].stats.events_received == 0
        assert network.brokers[4].stats.events_received == 0

    def test_delivery_audit_no_misses_for_sound_strategies(self, schema):
        rng = random.Random(7)
        for covering in ("none", "exact", "approximate"):
            network = BrokerNetwork.from_topology(
                schema, tree_topology(7), covering=covering,
                config=IndexConfig(epsilon=0.2, cube_budget=20_000)
            )
            for i in range(30):
                lo_x, lo_y = rng.uniform(0, 60), rng.uniform(0, 60)
                sub = Subscription(
                    schema,
                    {"x": (lo_x, lo_x + rng.uniform(5, 40)), "y": (lo_y, lo_y + rng.uniform(5, 40))},
                    sub_id=f"{covering}-s{i}",
                )
                network.subscribe(rng.randrange(7), f"client-{i}", sub)
            for _ in range(20):
                event = Event(schema, {"x": rng.uniform(0, 100), "y": rng.uniform(0, 100)})
                missed, extra = network.publish_and_audit(rng.randrange(7), event)
                assert missed == set(), f"covering={covering} lost an event"
                assert extra == set()

    def test_expected_recipients(self, schema):
        network = make_network(schema)
        network.subscribe(0, "alice", Subscription(schema, {"x": (0.0, 50.0)}, sub_id="a"))
        network.subscribe(3, "bob", Subscription(schema, {"x": (40.0, 100.0)}, sub_id="b"))
        event = Event(schema, {"x": 45.0, "y": 0.0})
        assert network.expected_recipients(event) == {"alice", "bob"}

    def test_audit_tallies_and_broker_counters_accumulate(self, schema):
        network = make_network(schema)
        network.subscribe(0, "alice", Subscription(schema, {"x": (0.0, 50.0)}, sub_id="a"))
        for broker_id, event in [
            (2, Event(schema, {"x": 25.0, "y": 1.0})),
            (4, Event(schema, {"x": 99.0, "y": 1.0})),
        ]:
            network.publish_and_audit(broker_id, event)
        assert network.routing_table_entries() >= 1
        assert network.audited_delivered == 1
        assert network.audited_missed == 0
        assert len(network.brokers) == 5
        assert network.brokers[0].stats.events_delivered_locally == 1
        assert sum(b.stats.events_received for b in network.brokers.values()) > 0

    def test_publish_unknown_broker_rejected(self, schema):
        network = make_network(schema)
        with pytest.raises(ValueError):
            network.publish("nope", Event(schema, {"x": 1.0, "y": 1.0}))
        with pytest.raises(ValueError):
            network.subscribe("nope", "c", Subscription(schema, {}))


class TestPublishBatchRegression:
    """publish_batch must be observationally identical to sequential publish."""

    def _populate(self, network, rng):
        for i in range(25):
            lo_x, lo_y = rng.uniform(0, 60), rng.uniform(0, 60)
            sub = Subscription(
                schema=network.schema,
                constraints={
                    "x": (lo_x, lo_x + rng.uniform(5, 35)),
                    "y": (lo_y, lo_y + rng.uniform(5, 35)),
                },
                sub_id=f"s{i}",
            )
            network.subscribe(rng.randrange(7), f"client-{i}", sub)

    def _events(self, schema, rng):
        return [
            Event(
                schema,
                {"x": rng.uniform(0, 100), "y": rng.uniform(0, 100)},
                event_id=f"e{j}",
            )
            for j in range(15)
        ]

    def test_batch_matches_sequential_deliveries_and_stats(self, schema, table_path):
        def build():
            return BrokerNetwork.from_topology(
                schema,
                tree_topology(7),
                covering="approximate",
                config=IndexConfig(epsilon=0.2, cube_budget=20_000),
                seed=5,
            )

        rng = random.Random(17)
        batch_net = build()
        self._populate(batch_net, rng)
        events_rng = random.Random(23)
        batch_results = batch_net.publish_batch(3, self._events(schema, events_rng))

        rng = random.Random(17)
        seq_net = build()
        self._populate(seq_net, rng)
        events_rng = random.Random(23)
        seq_results = [seq_net.publish(3, e) for e in self._events(schema, events_rng)]

        # Per-event delivery sets, the raw delivery log, message counters and
        # every per-broker stat must be identical.
        assert batch_results == seq_results
        assert batch_net.deliveries == seq_net.deliveries
        assert batch_net.event_messages == seq_net.event_messages
        assert batch_net.subscription_messages == seq_net.subscription_messages
        for broker_id, broker in batch_net.brokers.items():
            other = seq_net.brokers[broker_id]
            assert broker.stats.as_dict() == other.stats.as_dict()
            assert broker.routing_table.match_work() == other.routing_table.match_work()

    @pytest.mark.parametrize("transport_kind", ["sync", "sim"])
    def test_repeated_event_id_gets_each_events_own_recipients(self, transport_kind):
        # Recipients are collected by event id: a batch whose events all share
        # one id once handed every position the union of all of them.
        scenario = stock_market_scenario(num_subscriptions=40, num_events=4, seed=1)
        events = [Event(scenario.schema, values, event_id="same") for values in scenario.events]

        def build():
            transport = (
                SimTransport(UniformJitterLatency(0.05, 0.2), seed=3)
                if transport_kind == "sim"
                else None
            )
            network = BrokerNetwork.from_topology(
                scenario.schema, chain_topology(3), covering="approximate",
                seed=1, transport=transport,
            )
            for i, constraints in enumerate(scenario.subscriptions):
                network.subscribe(
                    i % 3, f"c{i}", Subscription(scenario.schema, constraints, sub_id=f"s{i}")
                )
            return network

        seq_net = build()
        sequential =[seq_net.publish(0, event) for event in events]
        batch_net = build()
        batched = batch_net.publish_batch(0, events)
        assert batched == sequential
        assert len({frozenset(r) for r in sequential}) > 1, "the events must differ"
        assert batch_net.deliveries == seq_net.deliveries
        assert batch_net.routing_state() == seq_net.routing_state()


class TestClients:
    def test_subscriber_and_publisher_flow(self, schema):
        network = make_network(schema)
        alice = Subscriber(network, broker_id=4, client_id="alice")
        alice.subscribe({"x": (0.0, 50.0)})
        publisher = Publisher(network, broker_id=0)
        event = publisher.publish({"x": 10.0, "y": 10.0}, event_id="e-1")
        assert alice.received_events() == ["e-1"]
        assert alice.would_match(event)
        assert publisher.published == [event]

    def test_subscriber_multiple_subscriptions_single_delivery(self, schema):
        network = make_network(schema)
        alice = Subscriber(network, broker_id=2, client_id="alice")
        alice.subscribe({"x": (0.0, 50.0)})
        alice.subscribe({"y": (0.0, 50.0)})
        publisher = Publisher(network, broker_id=0)
        publisher.publish({"x": 10.0, "y": 10.0}, event_id="both")
        # The event matches both subscriptions but is delivered once.
        assert alice.received_events() == ["both"]

    def test_publisher_event_ids_auto_assigned(self, schema):
        network = make_network(schema)
        publisher = Publisher(network, broker_id=0)
        e1 = publisher.publish({"x": 1.0, "y": 1.0})
        e2 = publisher.publish({"x": 2.0, "y": 2.0})
        assert e1.event_id != e2.event_id
