"""Tests for brokers, the overlay network, propagation and event delivery."""

from __future__ import annotations

import random

import pytest

from repro.index.config import IndexConfig
from repro.obs.trace import TraceLog
from repro.pubsub.broker import Broker
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


def make_network(schema, covering="approximate", num_brokers=5):
    return BrokerNetwork.from_topology(
        schema, chain_topology(num_brokers), covering=covering,
        config=IndexConfig(), seed=1
    )


class TestTopologyHelpers:
    def test_tree(self):
        edges = tree_topology(7)
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

    @pytest.mark.parametrize("kind", ["bogus", "exact"])
    @pytest.mark.parametrize("edges", [[], [(0, 1)]], ids=["1-broker", "2-broker"])
    def test_unknown_covering_kind_rejected_up_front(self, schema, edges, kind):
        # Regression: with one broker no covering strategy is ever built, so
        # "bogus" used to subscribe and deliver; with two the ValueError
        # surfaced from connect() *after* graph.add_edge.  "exact" ran the
        # scan "approximate" runs and is no kind any more.
        with pytest.raises(ValueError, match=f"unknown covering strategy '{kind}'"):
            BrokerNetwork.from_topology(schema, edges, covering=kind)
        with pytest.raises(ValueError, match=f"unknown covering strategy '{kind}'"):
            Broker(broker_id=0, schema=schema, covering=kind)

    def test_rejected_broker_leaves_the_graph_unchanged(self, schema):
        network = BrokerNetwork.from_topology(schema, [(0, 1)])
        network.covering = "bogus"  # reaches Broker() through add_broker
        with pytest.raises(ValueError, match="unknown covering strategy"):
            network.join_broker(2, attach_to=0)
        assert set(network.brokers) == {0, 1}
        assert sorted(network.graph) == [0, 1]
        assert network.graph == {0: {1}, 1: {0}}
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
        network = make_network(schema, covering="approximate")
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
        network = make_network(schema, covering="approximate")
        network.subscribe(0, "c1", Subscription(schema, {"x": (10.0, 20.0)}, sub_id="narrow"))
        before = network.subscription_messages
        network.subscribe(0, "c2", Subscription(schema, {"x": (0.0, 90.0)}, sub_id="wide"))
        assert network.subscription_messages > before
        assert network.brokers[0].has_forwarded(1, "wide")

    def test_covering_spans_record_choices(self, schema):
        network = BrokerNetwork.from_topology(
            schema, chain_topology(2), covering="approximate", tracing=TraceLog(seed=1)
        )
        network.subscribe(0, "c1", Subscription(schema, {"x": (0.0, 90.0)}, sub_id="wide"))
        network.subscribe(0, "c2", Subscription(schema, {"x": (1.0, 2.0)}, sub_id="narrow"))
        decisions = [
            (span.name, span.broker_id, span.parent,
             dict(span.detail)["decision"], dict(span.detail)["covered_by"])
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
        for covering in ("none", "approximate"):
            network = BrokerNetwork.from_topology(
                schema, tree_topology(5), covering=covering,
                config=IndexConfig()
            )
            for i, sub in enumerate(subs):
                fresh = Subscription(schema, sub.constraints, sub_id=sub.sub_id)
                network.subscribe(i % 5, f"client-{i}", fresh)
            sizes[covering] = network.routing_table_entries()
        assert sizes["approximate"] <= sizes["none"]


class TestEventDelivery:
    @pytest.mark.parametrize("covering", ["none", "approximate"])
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
        for covering in ("none", "approximate"):
            network = BrokerNetwork.from_topology(
                schema, tree_topology(7), covering=covering,
                config=IndexConfig()
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

    def test_an_event_on_another_schema_is_rejected_before_routing(self, schema):
        """An event quantised on another grid (3 attributes at order 6 here)
        compares garbage against this network's boxes: before the publish
        check, 9 of these 200 were delivered.  Now ``publish`` and
        ``publish_batch`` raise, and nothing is delivered or sent."""
        foreign = AttributeSchema([Attribute(n, 0.0, 100.0) for n in "xyz"], order=6)
        network = BrokerNetwork.from_topology(schema, chain_topology(3), seed=1)
        rng = random.Random(3)
        corners = []
        for i in range(30):
            lo_x, lo_y = rng.uniform(0, 80), rng.uniform(0, 80)
            corners.append({"x": lo_x + 0.5, "y": lo_y + 0.5})
            network.subscribe(
                i % 3, f"c{i}",
                Subscription(
                    schema,
                    {"x": (lo_x, lo_x + rng.uniform(1, 20)), "y": (lo_y, lo_y + rng.uniform(1, 20))},
                    sub_id=f"s{i}",
                ),
            )
        sent = network.transport.stats.messages_sent
        events = [
            Event(foreign, {n: rng.uniform(0, 100) for n in "xyz"}, event_id=f"f{j}")
            for j in range(200)
        ]
        for j, event in enumerate(events):
            with pytest.raises(ValueError, match="another schema"):
                network.publish(j % 3, event)
            with pytest.raises(ValueError):
                network.expected_recipients(event)
        # One foreign event stops its whole batch, the valid one before it too.
        valid = Event(schema, corners[0], event_id="valid")
        assert network.expected_recipients(valid)
        with pytest.raises(ValueError, match="another schema"):
            network.publish_batch(0, [valid, events[0]])
        assert len(network.deliveries) == 0
        assert network.transport.stats.messages_sent == sent
        assert sum(b.stats.events_received for b in network.brokers.values()) == 0

    @pytest.mark.parametrize("entry", ["publish", "publish_batch"])
    @pytest.mark.parametrize(
        "attributes, order",
        [
            ([("x", 0.0, 100.0), ("y", 0.0, 100.0)], 6),
            ([("y", 0.0, 100.0), ("x", 0.0, 100.0)], 8),
            ([("x", 0.0, 50.0), ("y", 0.0, 100.0)], 8),
            ([("x", 0.0, 100.0)], 8),
        ],
        ids=["order", "swapped", "domain", "fewer"],
    )
    def test_every_schema_difference_is_rejected_where_the_event_enters(
        self, schema, entry, attributes, order
    ):
        """Another order, the same attributes in another order, another
        domain, fewer attributes: each alone makes the schema foreign, and
        neither publishing entry routes such an event anywhere, though a
        subscription spanning the whole space would match its cells."""
        foreign = AttributeSchema([Attribute(*spec) for spec in attributes], order=order)
        network = BrokerNetwork.from_topology(schema, chain_topology(3), seed=1)
        for broker in range(3):
            network.subscribe(
                broker, f"c{broker}",
                Subscription(schema, {"x": (0.0, 100.0), "y": (0.0, 100.0)}, sub_id=f"s{broker}"),
            )
        sent = network.transport.stats.messages_sent
        event = Event(foreign, {name: 25.0 for name in foreign.names}, event_id="f")
        with pytest.raises(ValueError, match="another schema"):
            if entry == "publish":
                network.publish(1, event)
            else:
                network.publish_batch(1, [event])
        assert len(network.deliveries) == 0
        assert network.transport.stats.messages_sent == sent
        assert sum(b.stats.events_received for b in network.brokers.values()) == 0

    @pytest.mark.parametrize("entry", ["publish", "publish_batch"])
    def test_an_equal_schema_built_apart_is_routed(self, schema, entry):
        """Compatibility is by value: an event on an equal schema built
        separately is routed as one on the network's own schema object."""
        twin = AttributeSchema(
            [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=8
        )
        assert twin is not schema
        network = BrokerNetwork.from_topology(schema, chain_topology(3), seed=1)
        network.subscribe(2, "far", Subscription(schema, {"x": (10.0, 30.0)}, sub_id="s"))
        event = Event(twin, {"x": 20.0, "y": 50.0}, event_id="t")
        if entry == "publish":
            assert network.publish(0, event) == {"far"}
        else:
            network.publish_batch(0, [event])
        assert [record.client_id for record in network.deliveries] == ["far"]

    def test_a_refused_publish_leaves_no_span_and_no_publish_time(self, schema):
        """The schema check runs before the publish is stamped: a refused
        ``publish`` or ``publish_batch`` records no ``publish`` span and keeps
        no publish time, the valid event ahead of the foreign one included."""
        foreign = AttributeSchema([Attribute("x", 0.0, 100.0)], order=8)
        network = BrokerNetwork.from_topology(
            schema, chain_topology(3), seed=1, tracing=TraceLog(enabled=True)
        )
        event = Event(foreign, {"x": 25.0}, event_id="f")
        with pytest.raises(ValueError, match="another schema"):
            network.publish(1, event)
        valid = Event(schema, {"x": 25.0, "y": 25.0}, event_id="valid")
        with pytest.raises(ValueError, match="another schema"):
            network.publish_batch(0, [valid, event])
        assert network.tracing.spans(kind="publish") == []
        assert network._publish_times == {}

    def test_the_schema_is_checked_once_per_event_not_per_hop(self, schema, monkeypatch):
        """An event that crosses every broker of a chain is checked where it
        enters, once, and never again at the brokers it is forwarded to."""
        twin = AttributeSchema(
            [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=8
        )
        network = BrokerNetwork.from_topology(schema, chain_topology(4), seed=1)
        for broker in range(4):
            network.subscribe(
                broker, f"c{broker}",
                Subscription(schema, {"x": (0.0, 100.0)}, sub_id=f"s{broker}"),
            )
        checks = []
        original = AttributeSchema.compatible_with
        monkeypatch.setattr(
            AttributeSchema, "compatible_with",
            lambda self, other: checks.append(other) or original(self, other),
        )
        assert network.publish(0, Event(twin, {"x": 5.0, "y": 5.0})) == {
            "c0", "c1", "c2", "c3"
        }
        assert checks == [twin]
        network.publish_batch(3, [Event(twin, {"x": 5.0, "y": 5.0}) for _ in range(3)])
        assert checks == [twin] * 4
        assert len(network.deliveries) == 16

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
                config=IndexConfig(),
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
        subscription = Subscription(schema, {"x": (0.0, 50.0)})
        network.subscribe(4, "alice", subscription)
        event = Event(schema, {"x": 10.0, "y": 10.0}, event_id="e-1")
        assert network.publish(0, event) == {"alice"}
        assert [r.event_id for r in network.deliveries if r.client_id == "alice"] == ["e-1"]
        assert subscription.matches(event)

    def test_subscriber_multiple_subscriptions_single_delivery(self, schema):
        network = make_network(schema)
        network.subscribe(2, "alice", Subscription(schema, {"x": (0.0, 50.0)}))
        network.subscribe(2, "alice", Subscription(schema, {"y": (0.0, 50.0)}))
        network.publish(0, Event(schema, {"x": 10.0, "y": 10.0}, event_id="both"))
        # The event matches both subscriptions but is delivered once.
        assert [r.event_id for r in network.deliveries if r.client_id == "alice"] == ["both"]

    def test_publisher_event_ids_auto_assigned(self, schema):
        network = make_network(schema)
        e1 = Event(schema, {"x": 1.0, "y": 1.0})
        e2 = Event(schema, {"x": 2.0, "y": 2.0})
        network.publish(0, e1)
        network.publish(0, e2)
        assert e1.event_id != e2.event_id
