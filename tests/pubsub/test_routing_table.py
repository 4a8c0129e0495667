"""Tests for routing tables and a broker link's covering check."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.index.config import IndexConfig
from repro.pubsub.match_index import MatchIndex, MatchIndexStats
from repro.pubsub.broker import Broker
from repro.pubsub.network import BrokerNetwork
from repro.pubsub.routing_table import InterfaceTable, RoutingTable
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription
from repro.sfc.zorder import ZOrderCurve


@pytest.fixture
def schema():
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=8
    )


def link_broker(schema, covering):
    """A broker with one neighbour (1) whose sends are collected, not delivered."""
    broker = Broker(broker_id=0, schema=schema, covering=covering)
    broker.connect(1)
    sent = []
    broker.attach_transport(
        SimpleNamespace(send=lambda *message: sent.append(message)), lambda *delivery: None
    )
    return broker, sent


def box(schema, sub_id, x, y):
    return Subscription(schema, {"x": x, "y": y}, sub_id=sub_id)


class TestCoveringStrategies:
    """The covering check of one broker link, one behaviour per test."""

    @pytest.mark.parametrize("kind", ["magic", "exact"])
    def test_factory_rejects_unknown(self, schema, kind):
        with pytest.raises(ValueError):
            Broker(broker_id=0, schema=schema, covering=kind)
        with pytest.raises(ValueError):
            BrokerNetwork(schema, covering=kind)

    def test_none_strategy_never_suppresses(self, schema):
        broker, sent = link_broker(schema, "none")
        broker.subscribe_local("c", box(schema, "a", (0.0, 100.0), (0.0, 100.0)))
        broker.subscribe_local("c", box(schema, "b", (10.0, 20.0), (10.0, 20.0)))
        assert list(broker._links[1].forwarded) == ["a", "b"]
        assert [message[3].sub_id for message in sent] == ["a", "b"]
        assert broker.stats.covering_checks == 2  # every decision counts...
        assert broker.stats.covering_check_runs == 0  # ...and compares nothing

    def test_wide_subscription_suppresses_narrow(self, schema):
        broker, sent = link_broker(schema, "approximate")
        broker.subscribe_local("c", box(schema, "wide", (0.0, 98.0), (0.0, 98.0)))
        broker.subscribe_local("c", box(schema, "narrow", (40.0, 60.0), (40.0, 60.0)))
        link = broker._links[1]
        assert list(link.forwarded) == ["wide"]
        assert link.suppressed["narrow"][1] == "wide"
        assert len(sent) == 1
        assert broker.stats.covering_check_runs == 1  # one forwarded, one compared

    @pytest.mark.parametrize("kind", ["none", "approximate"])
    def test_sound_strategies_do_not_invent_covers(self, schema, kind):
        broker, _ = link_broker(schema, kind)
        broker.subscribe_local("c", box(schema, "narrow", (40.0, 60.0), (40.0, 60.0)))
        broker.subscribe_local("c", box(schema, "wide", (0.0, 80.0), (0.0, 80.0)))
        assert list(broker._links[1].forwarded) == ["narrow", "wide"]
        assert not broker._links[1].suppressed

    def test_remove_reopens_forwarding(self, schema):
        broker, sent = link_broker(schema, "approximate")
        broker.subscribe_local("c", box(schema, "wide", (0.0, 98.0), (0.0, 98.0)))
        broker.subscribe_local("c", box(schema, "narrow", (10.0, 20.0), (10.0, 20.0)))
        assert "narrow" in broker._links[1].suppressed
        assert broker.unsubscribe_local("c", "wide")
        # The withdrawal goes out, then the dependant it uncovered.
        assert [(kind, payload) for kind, _, _, payload in sent[1:]] == [
            ("unsubscription", "wide"),
            ("subscription", broker._links[1].forwarded["narrow"]),
        ]
        assert broker.stats.promotions == 1
        broker.subscribe_local("c", box(schema, "other", (50.0, 60.0), (50.0, 60.0)))
        assert list(broker._links[1].forwarded) == ["narrow", "other"]

    def test_approximate_tracks_runs(self, schema):
        """``covering_check_runs`` counts the forwarded subscriptions compared."""
        broker, _ = link_broker(schema, "approximate")
        for i in range(4):
            x = (20.0 * i, 20.0 * i + 5.0)
            broker.subscribe_local("c", box(schema, f"s{i}", x, (0.0, 5.0)))
        assert broker.stats.covering_check_runs == 0 + 1 + 2 + 3
        broker.subscribe_local("c", box(schema, "in-s1", (21.0, 23.0), (1.0, 2.0)))
        assert broker._links[1].suppressed["in-s1"][1] == "s1"
        assert broker.stats.covering_check_runs == 6 + 2  # stopped at its witness
        assert broker.stats.covering_checks == 5


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
        assert table.matching_ids(inside)[0] == ["s1"]
        assert table.remove("s1")
        assert not table.remove("s1")
        assert not table.any_match(inside)

    def test_subscriptions_listing(self, schema):
        table = InterfaceTable("i", schema)
        table.add(Subscription(schema, {}, sub_id="a"))
        table.add(Subscription(schema, {}, sub_id="b"))
        assert {s.sub_id for s in table.subscriptions()} == {"a", "b"}

    def test_scans_up_to_the_limit_then_builds_one_index_for_life(self, schema, monkeypatch):
        """The table scans while it holds SCAN_LIMIT subscriptions or fewer
        (a re-add included); the add past the limit builds the index in one
        bulk load, and the table keeps it however small it gets again."""
        monkeypatch.setattr(MatchIndex, "RUN_BUDGET", 4)
        config = IndexConfig(precision_bits=4)
        table = InterfaceTable("i", schema, config=config)
        limit = InterfaceTable.SCAN_LIMIT
        for i in range(limit):
            table.add(strip(schema, i))
        table.add(strip(schema, 3, sub_id="s0"))  # a replacement is no arrival
        assert len(table) == limit and table.match_index is None
        table.add(strip(schema, limit))
        index = table.match_index
        assert index is not None and len(index) == limit + 1
        # One sweep flattened the whole table: nothing is staged.
        assert index._flat.rebuilds == 1 and not index._flat.staged
        assert table.config == config and index.config == config
        for i in range(2, limit + 1):
            assert table.remove(f"s{i}")
        table.add(Subscription(schema, {"y": (0.0, 5.0)}, sub_id="late"))
        assert table.match_index is index
        event = Event(schema, {"x": 12.0, "y": 1.0})
        # s0 was re-added as strip 3 (x 30–45): it no longer holds x = 12.
        assert set(table.matching_ids(event)[0]) == {"s1", "late"}

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
            table.matching_ids(Event(schema, {"x": value, "y": 1.0}))
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
        table.matching_ids(Event(schema, {"x": 30.0, "y": 1.0}))
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

    @pytest.mark.parametrize("precision_bits", [None, 1, 8], ids=["grown", "pinned1", "pinned8"])
    def test_routing_key_passes_straight_to_every_interface(self, schema, precision_bits):
        """Every interface's index is keyed on the Z curve of the full grid,
        whatever grid it decomposes on, so the one ``Event.key`` answers
        every probe."""
        routing = RoutingTable(schema, config=IndexConfig(precision_bits=precision_bits))
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
            key = event.key
            for table in routing.interface_tables().values():
                assert table.match_index.event_key(event.cells) == key
                expected = {s.sub_id for s in table.subscriptions() if s.matches(event)}
                assert set(table.matching_ids(event)[0]) == expected
                assert table.any_match(event) == bool(expected)
                matched_any = matched_any or bool(expected)
        assert matched_any

    def test_standalone_indexed_tables_key_an_event_once(self, schema, monkeypatch):
        """A table outside a routing table reads and fills ``Event.key`` as a
        routed one does: three indexed tables share one keying, and a
        scanning table makes none."""
        monkeypatch.setattr(InterfaceTable, "SCAN_LIMIT", 0)
        keyed = []
        original = ZOrderCurve.key
        monkeypatch.setattr(
            ZOrderCurve, "key", lambda self, cells: keyed.append(cells) or original(self, cells)
        )
        tables = [InterfaceTable(name, schema) for name in "abc"]
        scanning = InterfaceTable("d", schema)
        scanning.SCAN_LIMIT = 1 << 30  # the instance attribute shadows the class constant
        for table in tables + [scanning]:
            table.add(box(schema, "s", (10.0, 30.0), (10.0, 30.0)))
        assert all(table.match_index is not None for table in tables)
        event = Event(schema, {"x": 20.0, "y": 20.0})
        assert scanning.any_match(event) and keyed == []
        assert [table.any_match(event) for table in tables[:2]] == [True, True]
        assert tables[0].matching_ids(event)[0] == ["s"] and keyed == [event.cells]
        assert tables[2].any_match(event) and keyed == [event.cells]
