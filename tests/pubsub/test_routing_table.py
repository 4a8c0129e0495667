"""Tests for routing tables and covering strategies."""

from __future__ import annotations

import random

import pytest

from repro.index.config import IndexConfig
from repro.pubsub.match_index import MatchIndexStats
from repro.pubsub.routing_table import (
    ApproximateCoveringStrategy,
    ExactCoveringStrategy,
    InterfaceTable,
    NoCoveringStrategy,
    ProbabilisticCoveringStrategy,
    RoutingTable,
    make_covering_strategy,
)
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription
from repro.sfc.factory import CURVE_KINDS


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
            ("probabilistic", ProbabilisticCoveringStrategy),
        ]:
            strategy = make_covering_strategy(kind, schema)
            assert isinstance(strategy, cls)
            assert isinstance(strategy.name, str)

    def test_factory_rejects_unknown(self, schema):
        with pytest.raises(ValueError):
            make_covering_strategy("magic", schema)

    def test_none_strategy_never_suppresses(self, schema):
        strategy = NoCoveringStrategy()
        strategy.add("a", ((0, 255), (0, 255)))
        assert strategy.find_covering(((10, 20), (10, 20))) is None
        assert strategy.work_units() == 0
        assert not strategy.remove("a")

    @pytest.mark.parametrize("kind", ["exact", "approximate", "probabilistic"])
    def test_wide_subscription_suppresses_narrow(self, schema, kind):
        strategy = make_covering_strategy(kind, schema, config=IndexConfig(epsilon=0.05), seed=1)
        strategy.add("wide", ((0, 250), (0, 250)))
        found = strategy.find_covering(((40, 60), (40, 60)))
        assert found == "wide"
        assert strategy.work_units() >= 0

    @pytest.mark.parametrize("kind", ["exact", "approximate"])
    def test_sound_strategies_do_not_invent_covers(self, schema, kind):
        strategy = make_covering_strategy(kind, schema, config=IndexConfig(epsilon=0.05))
        strategy.add("narrow", ((40, 60), (40, 60)))
        assert strategy.find_covering(((0, 200), (0, 200))) is None

    def test_remove_reopens_forwarding(self, schema):
        strategy = make_covering_strategy("exact", schema)
        strategy.add("wide", ((0, 250), (0, 250)))
        assert strategy.find_covering(((10, 20), (10, 20))) == "wide"
        assert strategy.remove("wide")
        assert strategy.find_covering(((10, 20), (10, 20))) is None

    def test_approximate_tracks_runs(self, schema):
        strategy = make_covering_strategy(
            "approximate", schema, config=IndexConfig(epsilon=0.2, cube_budget=500)
        )
        strategy.add("wide", ((0, 250), (0, 250)))
        strategy.find_covering(((10, 20), (10, 20)))
        assert strategy.work_units() >= 1


class TestInterfaceTable:
    def test_add_remove_match(self, schema):
        table = InterfaceTable("north")
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
        table = InterfaceTable("i")
        table.add(Subscription(schema, {}, sub_id="a"))
        table.add(Subscription(schema, {}, sub_id="b"))
        assert {s.sub_id for s in table.subscriptions()} == {"a", "b"}

    def test_sfc_table_keeps_one_index_for_life(self, schema):
        config = IndexConfig(curve="hilbert", run_budget=4)
        table = InterfaceTable("i", schema=schema, matching="sfc", config=config)
        index = table.match_index
        for i in range(6):
            table.add(Subscription(schema, {"x": (10.0 * i, 10.0 * i + 15.0)}, sub_id=f"s{i}"))
        table.matching(Event(schema, {"x": 12.0, "y": 1.0}))
        assert table.remove("s1") and table.remove("s4")
        table.add(Subscription(schema, {"y": (0.0, 5.0)}, sub_id="s6"))
        assert table.match_index is index
        assert table.config == config and index.curve.kind == "hilbert"
        assert {s.sub_id for s in table.matching(Event(schema, {"x": 12.0, "y": 1.0}))} == {
            "s0",
            "s6",
        }

    def test_match_stats_snapshot_the_live_index(self, schema):
        assert InterfaceTable("i").match_stats() == MatchIndexStats()
        table = InterfaceTable("i", schema=schema, matching="sfc")
        table.add(Subscription(schema, {"x": (0.0, 50.0)}, sub_id="s0"))
        before = table.match_stats()
        for value in (10.0, 20.0, 80.0):
            table.matching(Event(schema, {"x": value, "y": 1.0}))
        after = table.match_stats()
        assert after.lookups == before.lookups + 3
        assert after.inserts == before.inserts == 1
        assert after == table.match_index.stats
        assert after is not table.match_index.stats
        table.matching(Event(schema, {"x": 30.0, "y": 1.0}))
        assert after.lookups == before.lookups + 3


class TestRoutingTable:
    def test_tables_created_on_demand(self, schema):
        routing = RoutingTable()
        routing.table("east").add(Subscription(schema, {}, sub_id="a"))
        routing.table("west").add(Subscription(schema, {"x": (0.0, 10.0)}, sub_id="b"))
        assert set(routing.interfaces()) == {"east", "west"}
        assert routing.total_entries() == 2

    def test_matching_interfaces_excludes_source(self, schema):
        routing = RoutingTable()
        routing.table("east").add(Subscription(schema, {}, sub_id="a"))
        routing.table("west").add(Subscription(schema, {}, sub_id="b"))
        event = Event(schema, {"x": 5.0, "y": 5.0})
        assert set(routing.matching_interfaces(event)) == {"east", "west"}
        assert set(routing.matching_interfaces(event, exclude="east")) == {"west"}

    def test_non_matching_interface_not_selected(self, schema):
        routing = RoutingTable()
        routing.table("east").add(Subscription(schema, {"x": (0.0, 10.0)}, sub_id="a"))
        routing.table("west").add(Subscription(schema, {"x": (90.0, 100.0)}, sub_id="b"))
        event = Event(schema, {"x": 5.0, "y": 5.0})
        assert routing.matching_interfaces(event) == ["east"]

    @pytest.mark.parametrize("kind", CURVE_KINDS)
    def test_routing_key_passes_straight_to_every_interface(self, schema, kind):
        """An interface's index is keyed under the routing table's curve, so the
        key the routing table computes once per event answers every probe."""
        routing = RoutingTable(schema, matching="sfc", config=IndexConfig(curve=kind))
        rng = random.Random(5)
        for i in range(30):
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
