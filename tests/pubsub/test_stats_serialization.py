"""Drift guards: the scrape publishes every counter at its live value.

Each counter has one home — a broker's :class:`BrokerStats` and routing
table, the network's message counters and audit tallies, the shared profile
cache, the transport's stats — and one serialisation: ``publish_metrics``
copies them into the registry that ``scrape()`` / ``metrics_snapshot()``
render.  These tests read a live network's scrape back and pin that a
counter added to ``BrokerStats`` can never be silently dropped from it, and
that no value in it is a stale copy.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.obs.exposition import validate_prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.pubsub import BrokerStats
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription
from repro.sim.transport import SimTransport

#: The scrape's names for ``RoutingTable.match_work()``, in its order.
MATCH_WORK = (
    "match_index_lookups",
    "match_index_candidates",
    "match_index_false_positives",
)


def _schema():
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=5
    )


def _network_counters(network):
    """The eleven network-wide counters, read where each is kept."""
    cache = network.profile_cache
    return {
        "subscription_messages": network.subscription_messages,
        "unsubscription_messages": network.unsubscription_messages,
        "event_messages": network.event_messages,
        "events_delivered": network.audited_delivered,
        "events_missed": network.audited_missed,
        "duplicate_deliveries": network.audited_duplicates,
        "profile_cache_hits": cache.hits,
        "profile_cache_misses": cache.misses,
        "match_run_cache_hits": cache.run_hits,
        "match_run_cache_misses": cache.run_misses,
        "match_run_cache_evictions": cache.run_evictions,
    }


def _scraped(network, metric):
    samples = validate_prometheus_text(network.scrape())
    return samples[f"repro_{metric}"]


@pytest.fixture
def network():
    schema = _schema()
    network = BrokerNetwork.from_topology(
        schema,
        tree_topology(5),
        transport=SimTransport(seed=3),
        metrics=MetricsRegistry(),
    )
    network.subscribe(0, "alice", Subscription(schema, {"x": (0.0, 60.0)}, sub_id="a"))
    network.subscribe(3, "bob", Subscription(schema, {"x": (10.0, 50.0)}, sub_id="b"))
    network.flush()
    network.publish_and_audit(4, Event(schema, {"x": 30.0, "y": 1.0}))
    network.publish_and_audit(1, Event(schema, {"x": 70.0, "y": 1.0}))
    return network


class TestBrokerStatsDriftGuard:
    def test_as_dict_keys_are_exactly_the_fields(self):
        stats = BrokerStats()
        assert set(stats.as_dict()) == {f.name for f in fields(BrokerStats)}

    def test_as_dict_reflects_values(self):
        stats = BrokerStats(events_received=3, subscriptions_suppressed=2)
        d = stats.as_dict()
        assert d["events_received"] == 3
        assert d["subscriptions_suppressed"] == 2


class TestScrapeReadsLiveCounters:
    def test_broker_series_are_every_field_plus_match_work(self, network):
        by_broker = {}
        for labels, value in _scraped(network, "broker_counter_total"):
            by_broker.setdefault(labels["broker"], {})[labels["counter"]] = value
        assert set(by_broker) == {str(b) for b in network.brokers}
        for broker_id, broker in network.brokers.items():
            live = broker.stats.as_dict()
            live.update(zip(MATCH_WORK, broker.routing_table.match_work()))
            assert set(live) == {f.name for f in fields(BrokerStats)} | set(MATCH_WORK)
            assert by_broker[str(broker_id)] == live

    def test_network_series_are_the_eleven_live_counters(self, network):
        scraped = {
            labels["counter"]: value
            for labels, value in _scraped(network, "network_counter_total")
        }
        assert scraped == _network_counters(network)
        assert scraped["events_delivered"] == 2  # alice and bob; x=70 reaches nobody
        assert scraped["events_missed"] == 0

    def test_transport_series_are_the_live_counters(self, network):
        stats = network.transport.stats
        scraped = {
            labels["counter"]: value
            for labels, value in _scraped(network, "transport_counter_total")
        }
        assert scraped == {
            name: getattr(stats, name)
            for name in (
                "messages_sent",
                "messages_delivered",
                "messages_dropped",
                "backpressure_retries",
            )
        }
        assert scraped["messages_delivered"] > 0

    def test_match_work_is_current_at_every_scrape(self, network):
        # Nothing is copied between scrapes: more publishing shows up in the
        # next scrape without any sync step.
        def lookups():
            return sum(
                value
                for labels, value in _scraped(network, "broker_counter_total")
                if labels["counter"] == "match_index_lookups"
            )

        before = lookups()
        network.publish(2, Event(network.schema, {"x": 20.0, "y": 5.0}))
        after = lookups()
        assert after > before
        assert after == sum(
            broker.routing_table.match_work()[0] for broker in network.brokers.values()
        )

    def test_running_audit_tallies_feed_the_scrape(self):
        schema = _schema()
        network = BrokerNetwork.from_topology(
            schema, tree_topology(3), metrics=MetricsRegistry()
        )
        network.subscribe(2, "bob", Subscription(schema, {"x": (0.0, 100.0)}, sub_id="b"))
        for _ in range(3):
            network.publish_and_audit(0, Event(schema, {"x": 50.0, "y": 1.0}))
        scraped = {
            labels["counter"]: value
            for labels, value in _scraped(network, "network_counter_total")
        }
        assert scraped["events_delivered"] == 3
        assert scraped["events_missed"] == 0
        assert scraped["duplicate_deliveries"] == 0

    def test_metrics_snapshot_survives_json(self, network):
        snapshot = network.metrics_snapshot()
        parsed = json.loads(json.dumps(snapshot, sort_keys=True))
        assert parsed == snapshot
        series = parsed["repro_broker_counter_total"]["series"]
        assert {s["labels"]["broker"] for s in series} == {str(b) for b in network.brokers}
