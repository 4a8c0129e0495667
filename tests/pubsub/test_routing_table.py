"""Tests for routing tables and covering strategies."""

from __future__ import annotations

import random

import pytest

from repro.index.config import IndexConfig
from repro.index.sfc_array import FlatSegmentStore
from repro.pubsub.match_index import MatchIndexStats
from repro.pubsub.routing_table import (
    ApproximateCoveringStrategy,
    ExactCoveringStrategy,
    InterfaceTable,
    NoCoveringStrategy,
    RoutingTable,
    make_covering_strategy,
    make_profile_cache,
)
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription
from repro.sfc.factory import CURVE_KINDS
from test_covering_properties import profile_of


@pytest.fixture
def schema():
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=8
    )


class TestCoveringStrategies:
    def test_factory_builds_each_kind(self, schema):
        for kind, cls in [
            ("none", NoCoveringStrategy),
            ("exact", ExactCoveringStrategy),
            ("approximate", ApproximateCoveringStrategy),
        ]:
            strategy = make_covering_strategy(kind, schema)
            assert isinstance(strategy, cls)
            assert isinstance(strategy.name, str)

    def test_factory_rejects_unknown(self, schema):
        with pytest.raises(ValueError):
            make_covering_strategy("magic", schema)
        with pytest.raises(ValueError):
            make_profile_cache("magic", schema)

    def test_none_strategy_never_suppresses(self, schema):
        cache = make_profile_cache("none", schema)
        strategy = NoCoveringStrategy()
        strategy.add("a", profile_of(cache, ((0, 255), (0, 255))))
        assert strategy.find_covering(profile_of(cache, ((10, 20), (10, 20)))) == (None, 0)
        assert not strategy.remove("a")

    @pytest.mark.parametrize("kind", ["exact", "approximate"])
    def test_wide_subscription_suppresses_narrow(self, schema, kind):
        config = IndexConfig(epsilon=0.05)
        cache = make_profile_cache(kind, schema, config)
        strategy = make_covering_strategy(kind, schema, config=config)
        strategy.add("wide", profile_of(cache, ((0, 250), (0, 250))))
        found, work = strategy.find_covering(profile_of(cache, ((40, 60), (40, 60))))
        assert found == "wide"
        assert work >= 0

    @pytest.mark.parametrize("kind", ["exact", "approximate"])
    def test_sound_strategies_do_not_invent_covers(self, schema, kind):
        config = IndexConfig(epsilon=0.05)
        cache = make_profile_cache(kind, schema, config)
        strategy = make_covering_strategy(kind, schema, config=config)
        strategy.add("narrow", profile_of(cache, ((40, 60), (40, 60))))
        assert strategy.find_covering(profile_of(cache, ((0, 200), (0, 200))))[0] is None

    def test_remove_reopens_forwarding(self, schema):
        cache = make_profile_cache("exact", schema)
        strategy = make_covering_strategy("exact", schema)
        strategy.add("wide", profile_of(cache, ((0, 250), (0, 250))))
        assert strategy.find_covering(profile_of(cache, ((10, 20), (10, 20))))[0] == "wide"
        assert strategy.remove("wide")
        assert strategy.find_covering(profile_of(cache, ((10, 20), (10, 20))))[0] is None

    def test_approximate_tracks_runs(self, schema):
        config = IndexConfig(epsilon=0.2, cube_budget=500)
        cache = make_profile_cache("approximate", schema, config)
        strategy = make_covering_strategy("approximate", schema, config=config)
        strategy.add("wide", profile_of(cache, ((0, 250), (0, 250))))
        _, work = strategy.find_covering(profile_of(cache, ((10, 20), (10, 20))))
        assert work >= 1


def strip(schema, i, sub_id=None):
    return Subscription(schema, {"x": (10.0 * (i % 9), 10.0 * (i % 9) + 15.0)}, sub_id=sub_id or f"s{i}")


class TestInterfaceTable:
    def test_add_remove_match(self, schema):
        table = InterfaceTable("north", schema)
        sub = Subscription(schema, {"x": (0.0, 50.0)}, sub_id="s1")
        table.add(sub)
        assert len(table) == 1 and "s1" in table
        inside = Event(schema, {"x": 25.0, "y": 10.0})
        outside = Event(schema, {"x": 80.0, "y": 10.0})
        assert table.any_match(inside)
        assert not table.any_match(outside)
        assert [s.sub_id for s in table.matching(inside)] == ["s1"]
        assert table.remove("s1")
        assert not table.remove("s1")
        assert not table.any_match(inside)

    def test_subscriptions_listing(self, schema):
        table = InterfaceTable("i", schema)
        table.add(Subscription(schema, {}, sub_id="a"))
        table.add(Subscription(schema, {}, sub_id="b"))
        assert {s.sub_id for s in table.subscriptions()} == {"a", "b"}

    def test_scans_up_to_the_limit_then_builds_one_index_for_life(self, schema):
        """The table scans while it holds SCAN_LIMIT subscriptions or fewer
        (a re-add included); the add past the limit builds the index in one
        bulk load, and the table keeps it however small it gets again."""
        config = IndexConfig(curve="hilbert", run_budget=4)
        table = InterfaceTable("i", schema, config=config)
        limit = InterfaceTable.SCAN_LIMIT
        assert limit == FlatSegmentStore.PENDING_SLOTS
        for i in range(limit):
            table.add(strip(schema, i))
        table.add(strip(schema, 3, sub_id="s0"))  # a replacement is no arrival
        assert len(table) == limit and table.match_index is None
        table.add(strip(schema, limit))
        index = table.match_index
        assert index is not None and len(index) == limit + 1
        # One sweep flattened the whole table: nothing is staged.
        assert index._flat.rebuilds == 1 and not index._flat.staged
        assert table.config == config and index.curve.kind == "hilbert"
        for i in range(2, limit + 1):
            assert table.remove(f"s{i}")
        table.add(Subscription(schema, {"y": (0.0, 5.0)}, sub_id="late"))
        assert table.match_index is index
        event = Event(schema, {"x": 12.0, "y": 1.0})
        # s0 was re-added as strip 3 (x 30–45): it no longer holds x = 12.
        assert {s.sub_id for s in table.matching(event)} == {"s1", "late"}

    def test_a_rejected_arrival_leaves_the_table_scanning(self, schema):
        table = InterfaceTable("i", schema)
        for i in range(InterfaceTable.SCAN_LIMIT):
            table.add(strip(schema, i))
        other = AttributeSchema([Attribute("x", 0.0, 100.0)], order=8)
        with pytest.raises(ValueError):
            table.add(Subscription(other, {"x": (0.0, 5.0)}, sub_id="bad"))
        assert table.match_index is None and "bad" not in table
        table.add(strip(schema, 99))
        assert table.match_index is not None and len(table.match_index) == len(table)
        # The indexed table refuses it too, and a subscription the index
        # alone would take: as many ranges, in bounds, on other attributes.
        renamed = AttributeSchema(
            [Attribute("u", 0.0, 100.0), Attribute("v", 0.0, 100.0)], order=8
        )
        for foreign in (other, renamed):
            with pytest.raises(ValueError):
                table.add(Subscription(foreign, {}, sub_id="bad"))
        assert "bad" not in table and len(table.match_index) == len(table)

    def test_match_stats_count_the_scan_then_the_index(self, schema):
        table = InterfaceTable("i", schema)
        assert table.match_stats() == MatchIndexStats()
        table.add(Subscription(schema, {"x": (0.0, 50.0)}, sub_id="s0"))
        table.add(Subscription(schema, {"x": (60.0, 70.0)}, sub_id="s1"))
        for value in (10.0, 20.0, 80.0):
            table.matching(Event(schema, {"x": value, "y": 1.0}))
        # Every stored subscription tested per probe, every rejection counted.
        assert table.match_stats() == MatchIndexStats(
            lookups=3, candidates_checked=6, false_positives=4
        )
        # any_match stops at the first hit: one test for x = 10, two for a miss.
        assert table.any_match(Event(schema, {"x": 10.0, "y": 1.0}))
        assert not table.any_match(Event(schema, {"x": 90.0, "y": 1.0}))
        scanned = table.match_stats()
        assert (scanned.lookups, scanned.candidates_checked, scanned.false_positives) == (5, 9, 6)
        for i in range(InterfaceTable.SCAN_LIMIT):
            table.add(strip(schema, i, sub_id=f"t{i}"))
        index = table.match_index
        assert index is not None
        table.matching(Event(schema, {"x": 30.0, "y": 1.0}))
        after = table.match_stats()
        assert after.lookups == scanned.lookups + 1 == 6
        assert after.inserts == index.stats.inserts == InterfaceTable.SCAN_LIMIT + 2
        assert after.candidates_checked == scanned.candidates_checked + index.stats.candidates_checked
        assert after is not table.match_stats()


class TestRoutingTable:
    def test_tables_created_on_demand(self, schema):
        routing = RoutingTable(schema)
        routing.table("east").add(Subscription(schema, {}, sub_id="a"))
        routing.table("west").add(Subscription(schema, {"x": (0.0, 10.0)}, sub_id="b"))
        assert set(routing.interfaces()) == {"east", "west"}
        assert routing.total_entries() == 2

    def test_matching_interfaces_excludes_source(self, schema):
        routing = RoutingTable(schema)
        routing.table("east").add(Subscription(schema, {}, sub_id="a"))
        routing.table("west").add(Subscription(schema, {}, sub_id="b"))
        event = Event(schema, {"x": 5.0, "y": 5.0})
        assert set(routing.matching_interfaces(event)) == {"east", "west"}
        assert set(routing.matching_interfaces(event, exclude="east")) == {"west"}

    def test_non_matching_interface_not_selected(self, schema):
        routing = RoutingTable(schema)
        routing.table("east").add(Subscription(schema, {"x": (0.0, 10.0)}, sub_id="a"))
        routing.table("west").add(Subscription(schema, {"x": (90.0, 100.0)}, sub_id="b"))
        event = Event(schema, {"x": 5.0, "y": 5.0})
        assert routing.matching_interfaces(event) == ["east"]

    @pytest.mark.parametrize("kind", CURVE_KINDS)
    def test_routing_key_passes_straight_to_every_interface(self, schema, kind):
        """An interface's index is keyed under the routing table's curve, so the
        key the routing table computes once per event answers every probe."""
        routing = RoutingTable(schema, config=IndexConfig(curve=kind))
        rng = random.Random(5)
        # Past the scan limit on every table, so each one has built its index.
        for i in range(3 * (InterfaceTable.SCAN_LIMIT + 4)):
            lo_x, lo_y = rng.uniform(0, 80), rng.uniform(0, 80)
            routing.table(i % 3).add(
                Subscription(
                    schema,
                    {"x": (lo_x, lo_x + rng.uniform(1, 20)), "y": (lo_y, lo_y + rng.uniform(1, 20))},
                    sub_id=f"s{i}",
                )
            )
        matched_any = False
        for _ in range(60):
            event = Event(schema, {"x": rng.uniform(0, 100), "y": rng.uniform(0, 100)})
            key = routing.event_key(event)
            for table in routing.interface_tables().values():
                assert table.match_index.curve.kind == kind
                expected = {s.sub_id for s in table.subscriptions() if s.matches(event)}
                assert set(table.matching_ids(event, key=key)[0]) == expected
                assert table.any_match(event, key=key) == bool(expected)
                matched_any = matched_any or bool(expected)
        assert matched_any
