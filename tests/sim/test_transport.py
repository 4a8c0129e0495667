"""Tests for the transports: sync parity, simulated latency, queues, determinism."""

from __future__ import annotations

import pytest

import repro.sim.transport as transport_module
from repro.index.config import IndexConfig
from repro.obs.trace import TraceLog
from repro.pubsub import BrokerNetwork, Event, Subscription, tree_topology
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.sim import (
    FixedLatency,
    SimTransport,
    SyncTransport,
    UniformJitterLatency,
    percentile,
)


@pytest.fixture
def schema():
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=8
    )


def build_network(schema, transport, num_brokers=7, **kwargs):
    kwargs.setdefault("covering", "approximate")
    kwargs.setdefault("config", IndexConfig())
    return BrokerNetwork.from_topology(
        schema, tree_topology(num_brokers), transport=transport, **kwargs
    )


def tree_paths(graph, origin):
    """Broker -> the overlay path from ``origin`` to it (both ends included)."""
    paths = {origin: [origin]}
    frontier = [origin]
    for broker_id in frontier:
        for neighbour in graph[broker_id]:
            if neighbour not in paths:
                paths[neighbour] = paths[broker_id] + [neighbour]
                frontier.append(neighbour)
    return paths


def run_workload(network, num_subs=18, num_events=10):
    """A small deterministic workload with explicit ids; returns delivered sets."""
    for i in range(num_subs):
        lo = (i * 7) % 60
        network.subscribe(
            i % len(network.brokers),
            f"client-{i}",
            Subscription(network.schema, {"x": (float(lo), float(lo + 25))}, sub_id=f"s{i}"),
        )
    network.flush()
    results = []
    for j in range(num_events):
        event = Event(
            network.schema, {"x": (j * 13.0) % 100, "y": 50.0}, event_id=f"e{j}"
        )
        results.append(network.publish(j % len(network.brokers), event))
    return results


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 100) == 4.0
        assert percentile([], 50) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSyncTransport:
    def test_default_transport_is_sync(self, schema):
        network = BrokerNetwork.from_topology(schema, tree_topology(3))
        assert isinstance(network.transport, SyncTransport)
        assert network.transport.now == 0.0

    def test_transport_bound_to_one_network(self, schema):
        transport = SyncTransport()
        build_network(schema, transport)
        with pytest.raises(RuntimeError):
            BrokerNetwork.from_topology(schema, tree_topology(3), transport=transport)

    def test_sync_records_message_and_hop_stats(self, schema):
        network = build_network(schema, SyncTransport())
        run_workload(network)
        stats = network.transport.stats
        assert stats.messages_sent == stats.messages_delivered > 0
        assert stats.hop_counts and max(stats.hop_counts) >= 2
        assert all(latency == 0.0 for latency in stats.delivery_latencies)

    def test_an_untraced_sync_publish_builds_no_message(self, schema, monkeypatch):
        def no_message(*args, **kwargs):
            raise AssertionError("a synchronous hop built a Message")

        network = build_network(schema, SyncTransport())
        assert network.transport._observe_arrival is None
        monkeypatch.setattr(transport_module, "Message", no_message)
        delivered = run_workload(network)
        assert any(delivered)
        assert max(network.transport.stats.hop_counts) >= 2
        assert network.tracing.spans(kind="hop") == []

    def test_a_traced_sync_publish_records_one_hop_span_per_arrival(self, schema):
        network = build_network(schema, SyncTransport(), tracing=TraceLog(seed=3))
        assert network.transport._observe_arrival == network._observe_arrival
        run_workload(network, num_events=0)
        stats = network.transport.stats
        remote_arrivals = 0
        for j in range(12):
            origin = j % len(network.brokers)
            event = Event(schema, {"x": (j * 17.0) % 100, "y": 5.0}, event_id=f"e{j}")
            arrivals = len(stats.hop_counts)
            assert network.publish_and_audit(origin, event) == (set(), set())
            # The audited route: the tree paths from the origin to every other
            # broker holding a subscription the event matches.
            reached = {
                broker_id
                for broker_id, broker in network.brokers.items()
                for _, subscription in broker.local_subscriptions()
                if subscription.matches(event)
            } - {origin}
            paths = tree_paths(network.graph, origin)
            expected = {
                (path[step - 1], path[step], step)
                for broker_id in reached
                for path in [paths[broker_id]]
                for step in range(1, len(path))
            }
            spans = network.tracing.spans(
                trace_id=network.tracing.trace_id_for("evt", event.event_id), kind="hop"
            )
            assert len(spans) == len(stats.hop_counts) - arrivals == len(expected)
            assert {(span.parent, span.broker_id, span.hop) for span in spans} == expected
            assert all(span.start == span.duration == 0.0 for span in spans)
            remote_arrivals += len(spans)
        assert remote_arrivals > 12


class TestSimTransportDelivery:
    def test_same_deliveries_as_sync(self, schema):
        sync_net = build_network(schema, SyncTransport())
        sim_net = build_network(schema, SimTransport(FixedLatency(0.5), seed=5))
        assert run_workload(sync_net) == run_workload(sim_net)

    def test_delivery_latency_positive_and_recorded(self, schema):
        network = build_network(schema, SimTransport(FixedLatency(0.5), seed=5))
        network.subscribe(6, "alice", Subscription(schema, {"x": (0.0, 50.0)}, sub_id="a"))
        network.flush()
        delivered = network.publish(0, Event(schema, {"x": 10.0, "y": 1.0}, event_id="e"))
        assert delivered == {"alice"}
        *_, record = network.deliveries
        # Broker 6 is two hops from broker 0 in a 7-node binary tree: the
        # delivery time reflects two link traversals plus service time.
        assert record.time >= 1.0
        remote = [lat for lat in network.transport.stats.delivery_latencies if lat > 0]
        assert remote and min(remote) >= 1.0

    def test_audit_clean_under_latency(self, schema):
        network = build_network(
            schema, SimTransport(UniformJitterLatency(0.2, 0.6), seed=9)
        )
        for i in range(16):
            lo = (i * 11) % 60
            network.subscribe(
                i % 7,
                f"c{i}",
                Subscription(schema, {"x": (float(lo), float(lo + 30))}, sub_id=f"s{i}"),
            )
        network.flush()
        for j in range(12):
            event = Event(schema, {"x": (j * 17.0) % 100, "y": 5.0}, event_id=f"e{j}")
            missed, extra = network.publish_and_audit(j % 7, event)
            assert missed == set() and extra == set()

    def test_publish_async_defers_until_flush(self, schema):
        network = build_network(schema, SimTransport(FixedLatency(1.0), seed=1))
        network.subscribe(6, "alice", Subscription(schema, {"x": (0.0, 50.0)}, sub_id="a"))
        network.flush()
        before = len(network.deliveries)
        network.publish_async(0, Event(schema, {"x": 10.0, "y": 1.0}, event_id="e"))
        assert len(network.deliveries) == before  # still in flight
        network.flush()
        assert len(network.deliveries) == before + 1


class TestHopCounts:
    @pytest.mark.parametrize("kind", ["sync", "sim"])
    def test_an_event_id_published_again_counts_hops_from_its_new_origin(self, schema, kind):
        # Regression: hop depths were kept per event id until the next flush,
        # so a second publish of the id at broker 2 started from the depth
        # the first publish had reached there (2 -> 1 counted as 3 hops).
        # A message's hop count is now one past the message being handled.
        from repro.pubsub import chain_topology

        transport = SyncTransport() if kind == "sync" else SimTransport(FixedLatency(0.1), seed=0)
        network = BrokerNetwork.from_topology(schema, chain_topology(3), transport=transport)
        for broker_id in (0, 2):
            network.subscribe(
                broker_id,
                f"c{broker_id}",
                Subscription(schema, {"x": (0.0, 100.0)}, sub_id=f"s{broker_id}"),
            )
        network.flush()
        network.publish_async(0, Event(schema, {"x": 5.0, "y": 5.0}, event_id="e"))
        if kind == "sim":
            transport.kernel.run()  # the first publish lands everywhere, no flush
        network.publish_async(2, Event(schema, {"x": 6.0, "y": 6.0}, event_id="e"))
        network.flush()
        assert list(transport.stats.hop_counts) == [1, 2, 1, 2]
        assert [record.client_id for record in network.deliveries] == ["c0", "c2", "c2", "c0"]


class TestBoundedQueues:
    def test_backpressure_counts_but_never_drops(self, schema):
        transport = SimTransport(
            FixedLatency(0.2), inbox_capacity=1, service_time=0.3, seed=3
        )
        network = build_network(schema, transport)
        for i in range(10):
            network.subscribe(
                6, f"c{i}", Subscription(schema, {"x": (0.0, 90.0)}, sub_id=f"s{i}")
            )
        network.flush()
        events = [
            Event(schema, {"x": 10.0, "y": 1.0}, event_id=f"burst-{j}") for j in range(12)
        ]
        delivered = network.publish_batch(0, events)
        assert transport.stats.backpressure_retries > 0
        assert transport.stats.messages_dropped == 0
        assert transport.stats.max_queue_depth == 1
        # Every event still reached every matching subscriber.
        assert all(clients == {f"c{i}" for i in range(10)} for clients in delivered)

    def test_queue_depth_high_water_tracked(self, schema):
        transport = SimTransport(
            FixedLatency(0.2), inbox_capacity=64, service_time=0.5, seed=3
        )
        network = build_network(schema, transport)
        network.subscribe(1, "c", Subscription(schema, {"x": (0.0, 90.0)}, sub_id="s"))
        network.flush()
        events = [
            Event(schema, {"x": 10.0, "y": 1.0}, event_id=f"e{j}") for j in range(6)
        ]
        network.publish_batch(0, events)
        assert transport.stats.queue_depth_high_water.get(1, 0) > 1

    @pytest.mark.parametrize("service_time", [0.0, 0.01])
    def test_burst_into_one_slot_inbox_drains(self, schema, service_time):
        """A full inbox backs off for a positive delay, so a burst drains
        (a zero delay would retry at the same instant forever)."""
        transport = SimTransport(
            FixedLatency(0.2), inbox_capacity=1, service_time=service_time, seed=3
        )
        assert transport.retry_delay > 0
        network = build_network(schema, transport, num_brokers=3)
        reference = build_network(schema, None, num_brokers=3)
        for target in (network, reference):
            for i in range(30):
                target.subscribe(
                    i % 3,
                    f"c{i}",
                    Subscription(schema, {"x": (i * 2.0, i * 2.0 + 40.0)}, sub_id=f"s{i}"),
                )
        transport.kernel.run(max_steps=10_000)
        assert transport.kernel.pending == 0
        assert transport.stats.backpressure_retries > 0
        assert transport.stats.messages_dropped == 0
        assert network.routing_state() == reference.routing_state()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SimTransport(inbox_capacity=0)
        with pytest.raises(ValueError):
            SimTransport(service_time=-0.1)


class TestLinkOrdering:
    def test_unsubscription_cannot_overtake_subscription(self, schema):
        # Links are ordered channels: even with heavy jitter, a withdrawal
        # issued right after its subscription must arrive after it everywhere,
        # or downstream brokers keep a ghost entry forever.
        from repro.pubsub import chain_topology

        for seed in range(6):
            transport = SimTransport(UniformJitterLatency(0.1, 1.0), seed=seed)
            network = BrokerNetwork.from_topology(
                schema, chain_topology(3), covering="approximate", transport=transport
            )
            network.subscribe(
                0, "c", Subscription(schema, {"x": (0.0, 50.0)}, sub_id="S")
            )
            network.unsubscribe("c", "S")
            network.flush()
            assert network.routing_table_entries() == 0, f"ghost entry with seed {seed}"

    def test_backpressure_preserves_link_order(self, schema):
        transport = SimTransport(
            FixedLatency(0.2), inbox_capacity=1, service_time=0.5, seed=0
        )
        network = build_network(schema, transport, num_brokers=2)
        # Fill the pipe with subscriptions, then withdraw them all: with FIFO
        # links the withdrawals land after their subscriptions despite the
        # 1-slot inbox forcing retries, so nothing survives.
        for i in range(8):
            network.subscribe(
                0, f"c{i}", Subscription(schema, {"x": (0.0, 50.0)}, sub_id=f"S{i}")
            )
        for i in range(8):
            network.unsubscribe(f"c{i}", f"S{i}")
        network.flush()
        assert transport.stats.backpressure_retries > 0
        assert network.routing_table_entries() == 0


class TestDeterminism:
    def _run(self, schema, seed):
        transport = SimTransport(
            UniformJitterLatency(0.3, 0.9),
            inbox_capacity=4,
            service_time=0.05,
            seed=seed,
        )
        network = build_network(schema, transport)
        run_workload(network)
        delivery_log = repr(network.deliveries)
        stats_text = repr(sorted(network.transport.stats.as_dict().items())) + repr(
            [
                (
                    str(broker_id),
                    network.brokers[broker_id].stats.as_dict(),
                    network.brokers[broker_id].routing_table.match_work(),
                )
                for broker_id in sorted(network.brokers, key=str)
            ]
        )
        return delivery_log, stats_text

    def test_same_seed_byte_identical_logs_and_stats(self, schema):
        # The acceptance criterion: two identical SimTransport runs with the
        # same seed produce byte-identical delivery logs and stats.
        first = self._run(schema, seed=42)
        second = self._run(schema, seed=42)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_different_seed_changes_timing(self, schema):
        a = self._run(schema, seed=42)
        b = self._run(schema, seed=43)
        assert a[0] != b[0]


class TestCrashLifecycleRegressions:
    """Crash/recover must not leave stale callbacks or per-link state behind."""

    def test_post_recovery_service_rate_is_single(self, schema):
        # Regression: a _process callback scheduled before a crash used to
        # survive it (mark_down only discarded the _draining flag), so after
        # recovery a fresh arrival started a *second* drain loop and the
        # broker served at twice its service rate.  Pinned by asserting the
        # inter-delivery spacing after a crash/recover cycle.
        from repro.pubsub import chain_topology

        transport = SimTransport(FixedLatency(0.1), service_time=1.0, seed=0)
        network = BrokerNetwork.from_topology(
            schema, chain_topology(2), covering="approximate", transport=transport
        )
        network.subscribe(1, "c", Subscription(schema, {"x": (0.0, 100.0)}, sub_id="s"))
        network.flush()
        # Queue events at broker 1 so a drain-loop callback is pending...
        for j in range(3):
            network.publish_async(
                0, Event(schema, {"x": 10.0, "y": 1.0}, event_id=f"pre-{j}")
            )
        transport.kernel.run(until=transport.now + 0.15)  # arrivals in, none served
        # ...then crash (wiping the inbox) and recover while it is pending.
        network.crash_broker(1)
        network.recover_broker(1)
        for j in range(4):
            network.publish_async(
                0, Event(schema, {"x": 10.0, "y": 1.0}, event_id=f"post-{j}")
            )
        network.flush()
        times = sorted(record.time for record in network.deliveries)
        assert len(times) == 4  # pre-crash events died with the inbox
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= transport.service_time - 1e-9 for gap in gaps), gaps

    def test_crash_purges_per_link_and_per_broker_state(self, schema):
        from repro.pubsub import chain_topology

        transport = SimTransport(
            FixedLatency(0.1), inbox_capacity=1, service_time=0.5, seed=0
        )
        network = BrokerNetwork.from_topology(
            schema, chain_topology(3), covering="approximate", transport=transport
        )
        for i in range(6):
            network.subscribe(
                2, f"c{i}", Subscription(schema, {"x": (0.0, 90.0)}, sub_id=f"s{i}")
            )
        network.flush()
        # Build a blocked queue against broker 2's 1-slot inbox, then crash it
        # mid-burst: everything keyed by an incoming link of the dead broker
        # must be purged, not just the blocked queue.
        for j in range(6):
            network.publish_async(
                1, Event(schema, {"x": 10.0, "y": 1.0}, event_id=f"e{j}")
            )
        transport.kernel.run(until=transport.now + 0.3)
        inbox = transport._inboxes[2]
        assert inbox.draining and transport._links[(1, 2)].blocked
        network.crash_broker(2)
        # The link records (clock and blocked queue) and the inbox record
        # (queue and draining flag) are gone; the retired inbox fences the
        # steps scheduled for it and the retry of the dropped blocked queue.
        assert not any(link[1] == 2 for link in transport._links)
        assert 2 not in transport._inboxes
        assert inbox.retired and not inbox.queue
        network.flush()

    def test_link_state_bounded_after_dynamic_churn(self, schema):
        # Churn-storm leak check: after a full crash/recover scenario every
        # per-link dict is bounded by the live overlay (blocked queues fully
        # drained, link clocks only for overlay edges).
        from repro.workloads.dynamics import rolling_failures_script, run_dynamic_scenario
        from repro.workloads.scenarios import stock_market_scenario

        scenario = stock_market_scenario(
            num_subscriptions=20, num_events=10, order=8, seed=7
        )
        transport = SimTransport(UniformJitterLatency(0.05, 0.2), seed=5)
        network = BrokerNetwork.from_topology(
            scenario.schema,
            tree_topology(7),
            covering="approximate",
            config=IndexConfig(),
            transport=transport,
        )
        script = rolling_failures_script(
            scenario, list(range(7)), crash_ids=[2, 4], seed=6
        )
        run_dynamic_scenario(network, script)
        directed_edges = {
            (a, b) for a, neighbours in network.graph.items() for b in neighbours
        }
        assert all(link.blocked is None for link in transport._links.values())
        assert set(transport._links) <= directed_edges
        assert set(transport._inboxes) <= set(network.brokers)
        assert not any(inbox.draining or inbox.queue for inbox in transport._inboxes.values())
