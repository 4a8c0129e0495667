"""Acceptance tests for the observability layer on a seeded tree scenario.

The ISSUE's acceptance criteria, pinned:

* the scenario's Prometheus text parses structurally and carries delivery /
  suppression counters and per-hop latency buckets;
* every traced event's hop path is exactly the union of tree paths from the
  publishing broker to the brokers the delivery audit expects — the trace
  *is* the route;
* two same-seed runs are byte-identical (exposition text, trace-id
  sequences, counter values), the seed-17 text and JSON snapshot hash to
  pinned digests, and instrumentation that is switched off is the bare
  code path;
* an interface that has built its match index carries the per-interface
  match-index counters and gauges in the scrape; one still scanning carries
  none.
"""

from __future__ import annotations

import hashlib
import re
from unittest.mock import patch

import pytest

from repro.analysis.cli import run_metrics_scenario
from repro.obs.exposition import validate_prometheus_text, write_bench_json
from repro.obs.profiler import PROFILER
from repro.obs.registry import MetricsRegistry
from repro.pubsub import BrokerNetwork, Event, Subscription, tree_topology
from repro.pubsub.routing_table import InterfaceTable
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.sim import FixedLatency, SimTransport


def _tree_path_edges(origin: int, target: int, branching: int = 2):
    """Edges of the unique tree path origin -> target in ``tree_topology``."""
    def ancestors(node):
        chain = [node]
        while node:
            node = (node - 1) // branching
            chain.append(node)
        return chain

    up_origin, up_target = ancestors(origin), ancestors(target)
    meet = next(n for n in up_origin if n in set(up_target))
    # Walk origin up to the meeting point, then down to the target.
    path = up_origin[: up_origin.index(meet) + 1]
    path += list(reversed(up_target[: up_target.index(meet)]))
    return list(zip(path, path[1:]))


@pytest.fixture(scope="module", autouse=True)
def default_scrape():
    """These tests pin the default scrape, which the profiler's series are not in
    (they appear only while it is enabled, e.g. under ``REPRO_PROF=1``)."""
    was_enabled = PROFILER.enabled
    PROFILER.disable()
    yield
    if was_enabled:
        PROFILER.enable()


@pytest.fixture(scope="module")
def scenario():
    return run_metrics_scenario(seed=17)


class TestAcceptance:
    def test_all_events_delivered(self, scenario):
        assert scenario.table.rows  # the scenario actually published
        assert all(row["missed"] == 0 for row in scenario.table.rows)

    def test_prometheus_text_parses_with_required_metrics(self, scenario):
        samples = validate_prometheus_text(scenario.prometheus_text)
        # Delivery + suppression counters.
        network = {
            labels["counter"]: value
            for labels, value in samples["repro_network_counter_total"]
        }
        assert network["events_delivered"] > 0
        assert network["events_missed"] == 0
        broker = samples["repro_broker_counter_total"]
        suppressed = sum(
            value
            for labels, value in broker
            if labels["counter"] == "subscriptions_suppressed"
        )
        assert suppressed > 0  # covering actually suppressed propagation
        # Per-hop latency histogram with populated buckets.
        hop_buckets = samples["repro_hop_latency_seconds_bucket"]
        assert hop_buckets and hop_buckets[-1][1] > 0
        assert samples["repro_event_hops_count"][0][1] > 0

    def test_trace_hop_path_matches_expected_route(self, scenario):
        network = scenario.network
        for row in scenario.table.rows:
            trace_id = row["trace_id"]
            origin = row["origin"]
            event_id = row["event_id"]
            assert trace_id == network.tracing.trace_id_for("evt", event_id)
            # The audit's expected recipients are clients (reproducible: the
            # subscriptions are still installed after the run); mapped to the
            # brokers holding their matching subscriptions, the trace's hop
            # edges must be exactly the union of the tree paths that reach
            # the remote ones.
            event = _rebuild_event(network, event_id)
            expected = network.expected_recipients(event, origin=origin)
            expected_remote = {
                broker_id
                for broker_id, broker in network.brokers.items()
                for client, subscription in broker.local_subscriptions()
                if client in expected and subscription.matches(event)
            } - {origin}
            expected_edges = set()
            for target in expected_remote:
                expected_edges.update(_tree_path_edges(origin, target))
            assert set(network.tracing.hop_edges(trace_id)) == expected_edges

    def test_trace_renderings_name_the_first_event(self, scenario):
        assert "trace event-0" in scenario.trace_tree
        assert "publish @" in scenario.trace_tree
        assert "critical path:" in scenario.critical_path


def _rebuild_event(network, event_id):
    # Events are regenerated from the same seeded workload the driver used.
    from repro.workloads.generators import EventWorkload

    schema = network.schema
    index = int(event_id.split("-")[1])
    cells = EventWorkload(attributes=2, attribute_order=schema.order, seed=18).generate(
        index + 1
    )[index]
    return Event(
        schema,
        {
            name: schema.dequantize_value(name, cell)
            for name, cell in zip(schema.names, cells)
        },
        event_id=event_id,
    )


class TestDeterminism:
    def test_same_seed_runs_are_byte_identical(self, scenario):
        other = run_metrics_scenario(seed=17)
        assert other.prometheus_text == scenario.prometheus_text
        assert other.snapshot == scenario.snapshot
        assert other.trace_tree == scenario.trace_tree
        assert other.critical_path == scenario.critical_path
        assert (
            other.network.tracing.trace_ids() == scenario.network.tracing.trace_ids()
        )
        assert [
            (s.trace_id, s.kind, s.name, s.broker_id, s.parent, s.start, s.hop)
            for s in other.network.tracing.spans()
        ] == [
            (s.trace_id, s.kind, s.name, s.broker_id, s.parent, s.start, s.hop)
            for s in scenario.network.tracing.spans()
        ]

    def test_seed_17_exposition_is_pinned(self, scenario, tmp_path):
        # Both exposition forms, byte for byte, across processes and hash
        # seeds.  A change that alters the scrape on purpose updates these.
        text = scenario.prometheus_text.encode()
        assert hashlib.sha256(text).hexdigest() == (
            "6044f23dfc8c4d930de8f102ebfdc88ba09839547be8407277c00422f2dc867f"
        )
        written = write_bench_json(tmp_path / "BENCH_metrics.json", scenario.snapshot)
        assert hashlib.sha256(written.read_bytes()).hexdigest() == (
            "02f9ba08d3be5e43c70153e051592b1c6344686969622dc94d0a90f9a73dd91b"
        )

    def test_different_seed_changes_trace_ids(self, scenario):
        other = run_metrics_scenario(seed=18)
        assert other.network.tracing.trace_ids() != scenario.network.tracing.trace_ids()


@pytest.mark.parametrize("scan_limit", [0, InterfaceTable.SCAN_LIMIT])
def test_scrape_reports_per_interface_series(scan_limit, monkeypatch):
    """Only a table that has built its index reports per-interface series."""
    monkeypatch.setattr(InterfaceTable, "SCAN_LIMIT", scan_limit)
    schema = AttributeSchema(
        [Attribute("x", 0.0, 32.0), Attribute("y", 0.0, 32.0)], order=5
    )
    network = BrokerNetwork.from_topology(
        schema,
        tree_topology(3),
        seed=4,
        metrics=MetricsRegistry(),
    )
    network.subscribe(
        0, "c0", Subscription(schema, {"x": (1.0, 9.0), "y": (1.0, 9.0)}, sub_id="s0")
    )
    network.publish(2, Event(schema, {"x": 4.0, "y": 4.0}, event_id="e0"))
    scrape = network.scrape()
    indexed = scan_limit == 0
    assert ("match_interface_total" in scrape) is indexed
    assert ('gauge="segments"' in scrape) is indexed
    assert ('counter="false_positives"' in scrape) is indexed


def _small_sfc_network_scrape():
    schema = AttributeSchema(
        [Attribute("x", 0.0, 32.0), Attribute("y", 0.0, 32.0)], order=5
    )
    network = BrokerNetwork.from_topology(
        schema,
        tree_topology(3),
        seed=4,
        metrics=MetricsRegistry(),
    )
    with patch.object(InterfaceTable, "SCAN_LIMIT", 0):
        for i in range(4):
            network.subscribe(
                i % 3,
                f"c{i}",
                Subscription(schema, {"x": (i * 4.0, i * 4.0 + 9.0), "y": (1.0, 20.0)}, sub_id=f"s{i}"),
            )
    for j in range(6):
        network.publish(j % 3, Event(schema, {"x": j * 3.0, "y": 5.0}, event_id=f"e{j}"))
    return network.scrape()


def test_per_interface_series_are_the_live_index_counters_only():
    scrape = _small_sfc_network_scrape()
    counters = set(re.findall(r'repro_match_interface_total\{[^}]*counter="(\w+)"', scrape))
    gauges = set(re.findall(r'repro_match_interface\{[^}]*gauge="(\w+)"', scrape))
    assert counters == {
        "inserts",
        "removals",
        "coarsened_subscriptions",
        "lookups",
        "candidates_checked",
        "false_positives",
        "probe_flattens",
    }
    assert gauges == {"segments", "subscriptions", "precision_bits"}
    assert "autotuner_total" not in scrape


def test_autotune_env_var_changes_nothing(monkeypatch):
    monkeypatch.delenv("REPRO_AUTOTUNE", raising=False)
    plain = _small_sfc_network_scrape()
    monkeypatch.setenv("REPRO_AUTOTUNE", "1")
    assert _small_sfc_network_scrape() == plain


def _scripted_network(transport_kind, **network_kwargs):
    schema = AttributeSchema(
        [Attribute("x", 0.0, 32.0), Attribute("y", 0.0, 32.0)], order=5
    )
    transport = SimTransport(FixedLatency(0.1), seed=4) if transport_kind == "sim" else None
    network = BrokerNetwork.from_topology(
        schema, tree_topology(3), seed=4, transport=transport, **network_kwargs
    )
    for i in range(4):
        network.subscribe(
            i % 3,
            f"c{i}",
            Subscription(schema, {"x": (i * 4.0, i * 4.0 + 9.0), "y": (1.0, 20.0)}, sub_id=f"s{i}"),
        )
    network.flush()
    for j in range(6):
        network.publish(j % 3, Event(schema, {"x": j * 3.0, "y": 5.0}, event_id=f"e{j}"))
    return network


@pytest.mark.parametrize("transport_kind", ["sync", "sim"])
def test_network_without_a_registry_scrapes_like_one_given_a_registry(transport_kind):
    default = _scripted_network(transport_kind)
    given = _scripted_network(transport_kind, metrics=MetricsRegistry())
    text = default.scrape()
    assert "repro_broker_counter_total" in validate_prometheus_text(text)
    assert text == given.scrape()
    snapshot = default.metrics_snapshot()
    assert "repro_routing_table_entries" in snapshot
    assert snapshot == given.metrics_snapshot()


class TestInstrumentationOverhead:
    """Disabled instrumentation costs nothing over the bare code path."""

    def test_noprof_match_path_is_the_plain_function(self):
        from repro.pubsub.match_index import MatchIndex

        # Off (see default_scrape), the probe on the class is the function
        # defined there: no wrapper, so no overhead to bound.
        plain = MatchIndex.__dict__["any_match"]
        assert not hasattr(plain, "__wrapped__")
        assert plain.__qualname__ == "MatchIndex.any_match"
        PROFILER.enable()
        try:
            assert MatchIndex.__dict__["any_match"].__wrapped__ is plain
        finally:
            PROFILER.disable()
        assert MatchIndex.__dict__["any_match"] is plain
