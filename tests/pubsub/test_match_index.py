"""Tests for the SFC-keyed forwarding-match index and its routing integration.

The contract under test: ``matching="sfc"`` must be behaviourally identical to
the linear scan — same ``any_match`` answers, same matched subscription sets,
same network deliveries — while answering each event with a single ordered-map
probe.  Soundness must survive the run-budget over-approximation (the
rectangle fallback check) and arbitrary add/remove churn (segment splitting
and re-coalescing).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.bits import spread_bits
from repro.index.config import IndexConfig
from repro.pubsub.match_index import MatchIndex
from repro.pubsub.network import (
    BrokerNetwork,
    chain_topology,
    star_topology,
    tree_topology,
)
from repro.pubsub.routing_table import InterfaceTable, RoutingTable
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription


@pytest.fixture
def schema():
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=6
    )


def random_subscription(schema, rng, sub_id, max_width=40.0):
    lo_x, lo_y = rng.uniform(0, 95), rng.uniform(0, 95)
    return Subscription(
        schema,
        {
            "x": (lo_x, min(100.0, lo_x + rng.uniform(0.5, max_width))),
            "y": (lo_y, min(100.0, lo_y + rng.uniform(0.5, max_width))),
        },
        sub_id=sub_id,
    )


def random_event(schema, rng):
    return Event(schema, {"x": rng.uniform(0, 100), "y": rng.uniform(0, 100)})


class TestMatchIndexUnit:
    def test_single_subscription_point_stab(self, schema):
        index = MatchIndex(schema)
        sub = Subscription(schema, {"x": (10.0, 40.0), "y": (10.0, 40.0)}, sub_id="s")
        index.add("s", sub.ranges)
        inside = Event(schema, {"x": 25.0, "y": 25.0})
        outside = Event(schema, {"x": 80.0, "y": 25.0})
        assert index.any_match(inside.cells)
        assert not index.any_match(outside.cells)
        assert index.matching_ids(inside.cells) == ["s"]
        assert index.matching_ids(outside.cells) == []
        assert index.remove("s")
        assert not index.remove("s")
        assert not index.any_match(inside.cells)
        assert index.segment_count() == 0

    def test_full_range_subscription_matches_everything(self, schema):
        index = MatchIndex(schema)
        catch_all = Subscription(schema, {}, sub_id="all")
        index.add("all", catch_all.ranges)
        # The full universe is a single standard cube, hence a single segment.
        assert index.segment_count() == 1
        rng = random.Random(5)
        for _ in range(50):
            assert index.any_match(random_event(schema, rng).cells)

    def test_readd_replaces_previous_ranges(self, schema):
        index = MatchIndex(schema)
        first = Subscription(schema, {"x": (0.0, 20.0)}, sub_id="s")
        second = Subscription(schema, {"x": (60.0, 90.0)}, sub_id="s")
        index.add("s", first.ranges)
        index.add("s", second.ranges)
        assert len(index) == 1
        assert not index.any_match(Event(schema, {"x": 10.0, "y": 50.0}).cells)
        assert index.any_match(Event(schema, {"x": 70.0, "y": 50.0}).cells)

    @pytest.mark.parametrize("run_budget", [1, 2, 8, 64])
    def test_equivalence_with_brute_force_under_coarsening(self, schema, run_budget):
        """Tiny run budgets force heavy over-approximation; the rectangle
        fallback check must keep answers exact regardless."""
        rng = random.Random(run_budget)
        index = MatchIndex(schema, config=IndexConfig(run_budget=run_budget))
        subs = {}
        for i in range(40):
            sub = random_subscription(schema, rng, f"s{i}")
            subs[sub.sub_id] = sub
            index.add(sub.sub_id, sub.ranges)
        for sub_id in list(subs)[::4]:
            del subs[sub_id]
            assert index.remove(sub_id)
        for _ in range(300):
            event = random_event(schema, rng)
            expected = {sid for sid, sub in subs.items() if sub.matches(event)}
            assert set(index.matching_ids(event.cells)) == expected
            assert index.any_match(event.cells) == bool(expected)

    def test_coarsening_records_stats(self, schema):
        index = MatchIndex(schema, config=IndexConfig(run_budget=1))
        # A thin full-width strip decomposes into many runs at order 6.
        strip = Subscription(schema, {"y": (50.0, 51.0)}, sub_id="strip")
        index.add("strip", strip.ranges)
        assert index.stats.coarsened_subscriptions == 1
        assert index.stats.runs_stored == 1
        # Coarsening to one run over-approximates; probes off the strip must
        # still be rejected by the rectangle check.
        miss = Event(schema, {"x": 50.0, "y": 10.0})
        assert not index.any_match(miss.cells)
        assert index.stats.false_positives >= 1

    @pytest.mark.parametrize("precision_bits", [2, 4, 8])
    def test_precision_bounded_decomposition_stays_exact(self, precision_bits):
        """Snapping rectangles to a coarse decomposition grid is pure
        over-approximation; answers must remain identical to brute force."""
        schema9 = AttributeSchema(
            [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=9
        )
        rng = random.Random(precision_bits)
        index = MatchIndex(schema9, config=IndexConfig(precision_bits=precision_bits))
        subs = {}
        for i in range(25):
            sub = random_subscription(schema9, rng, f"s{i}")
            subs[sub.sub_id] = sub
            index.add(sub.sub_id, sub.ranges)
        for _ in range(200):
            event = random_event(schema9, rng)
            expected = {sid for sid, sub in subs.items() if sub.matches(event)}
            assert set(index.matching_ids(event.cells)) == expected

    @pytest.mark.parametrize("curve", ["zorder", "hilbert", "gray"])
    def test_tabulated_runs_equal_decomposed_runs(self, curve):
        """Grids within the precision budget read their runs off the shared
        table; the stored runs are those the decomposition would give."""
        schema3 = AttributeSchema(
            [Attribute(name, 0.0, 100.0) for name in "xyz"], order=10
        )
        rng = random.Random(7)
        tabulated = MatchIndex(schema3, config=IndexConfig(curve=curve))
        decomposed = MatchIndex(schema3, config=IndexConfig(curve=curve))
        assert tabulated._tabulated
        decomposed._tabulated = False
        for _ in range(30):
            ranges = []
            for _ in range(3):
                lo = rng.randint(0, 1023)
                ranges.append((lo, rng.randint(lo, 1023)))
            signature = tabulated._snap_signature(tuple(ranges))
            assert tabulated._runs_for([signature]) == decomposed._runs_for([signature])
        # An explicit precision beyond the budget keeps the decomposition.
        assert not MatchIndex(schema3, config=IndexConfig(precision_bits=6))._tabulated

    @pytest.mark.parametrize("attributes, order", [(4, 16), (8, 8)])
    def test_unconstrained_subscription_survives_a_bulk_load_at_64_bit_keys(
        self, attributes, order
    ):
        """An all-range subscription is the single run ``(0, 2**64 - 1)`` here, and
        a bulk load of 512+ takes the numpy sweep, whose exclusive run ends
        used to wrap to 0 and drop it: every answer against the rectangle oracle."""
        schema = AttributeSchema(
            [Attribute(f"a{i}", 0.0, 1.0) for i in range(attributes)], order=order
        )
        top = (1 << order) - 1
        rng = random.Random(attributes)
        rects = {"everything": ((0, top),) * attributes}
        # One that reaches the top of the key space without starting at 0.
        rects["upper-half"] = ((top // 2 + 1, top),) * attributes
        for i in range(600):
            corners = [sorted((rng.randint(0, top), rng.randint(0, top))) for _ in range(attributes)]
            rects[i] = tuple((lo, hi) for lo, hi in corners)
        index = MatchIndex(schema)
        index.add_batch(list(rects.items()))
        probes = [(top,) * attributes, (0,) * attributes, (top // 2 + 1,) * attributes]
        probes += [tuple(rng.randint(0, top) for _ in range(attributes)) for _ in range(40)]
        probes += [tuple(rng.randint(lo, hi) for lo, hi in rects[i]) for i in range(20)]
        for cells in probes:
            expected = {
                sub_id
                for sub_id, rect in rects.items()
                if all(lo <= cell <= hi for (lo, hi), cell in zip(rect, cells))
            }
            assert "everything" in expected
            assert set(index.matching_ids(cells)) == expected
            assert index.any_match(cells)

    def test_rejects_wrong_arity(self, schema):
        index = MatchIndex(schema)
        with pytest.raises(ValueError):
            index.add("bad", ((0, 5),))

    def test_rejects_invalid_ranges_without_mutating(self, schema):
        """A rejected replace must leave the previously stored entry intact."""
        index = MatchIndex(schema)
        good = Subscription(schema, {"x": (10.0, 40.0)}, sub_id="s")
        index.add("s", good.ranges)
        inside = Event(schema, {"x": 20.0, "y": 50.0})
        with pytest.raises(ValueError):
            index.add("s", ((5, 3), (0, 63)))  # inverted
        with pytest.raises(ValueError):
            index.add("s", ((0, 10), (0, 1_000_000)))  # out of universe
        assert "s" in index
        assert index.any_match(inside.cells)

    def test_rejects_bad_run_budget(self, schema):
        with pytest.raises(ValueError):
            MatchIndex(schema, config=IndexConfig(run_budget=0))

    def test_spread_bits_matches_curve_key(self, schema):
        index = MatchIndex(schema)
        rng = random.Random(3)
        dims = index.universe.dims
        points = [
            tuple(rng.randrange(index.universe.side) for _ in range(dims))
            for _ in range(50)
        ]
        for cells in points:
            key = 0
            for dim, cell in enumerate(cells):
                key |= spread_bits(cell, dims, dims - 1 - dim)
            assert key == index.curve.key(cells)
        # The batch construction shares the same layout and validation.
        assert index.curve.keys(points) == [index.curve.key(p) for p in points]
        with pytest.raises(ValueError):
            index.curve.keys([(0, index.universe.side)])


class TestInterfaceTableSfc:
    def test_requires_schema(self):
        with pytest.raises(ValueError):
            InterfaceTable("i", matching="sfc")

    def test_rejects_unknown_matching(self, schema):
        with pytest.raises(ValueError):
            InterfaceTable("i", schema=schema, matching="hash")
        with pytest.raises(ValueError):
            RoutingTable(schema=schema, matching="hash")

    def test_linear_and_sfc_agree_under_churn(self, schema):
        rng = random.Random(23)
        linear = InterfaceTable("i", schema=schema, matching="linear")
        sfc = InterfaceTable("i", schema=schema, matching="sfc", config=IndexConfig(run_budget=4))
        live = []
        for step in range(120):
            if rng.random() < 0.7 or not live:
                sub = random_subscription(schema, rng, f"s{step}")
                live.append(sub.sub_id)
                linear.add(sub)
                sfc.add(sub)
            else:
                sub_id = live.pop(rng.randrange(len(live)))
                assert linear.remove(sub_id)
                assert sfc.remove(sub_id)
            event = random_event(schema, rng)
            assert linear.any_match(event) == sfc.any_match(event)
            assert {s.sub_id for s in linear.matching(event)} == {
                s.sub_id for s in sfc.matching(event)
            }

    def test_routing_table_threads_precomputed_key(self, schema):
        routing = RoutingTable(schema=schema, matching="sfc")
        sub = Subscription(schema, {"x": (0.0, 50.0)}, sub_id="s")
        routing.table("east").add(sub)
        event = Event(schema, {"x": 10.0, "y": 10.0})
        key = routing.event_key(event)
        assert key is not None
        assert routing.matching_interfaces(event, key=key) == ["east"]
        assert routing.matching_interfaces(event) == ["east"]

    def test_matching_interfaces_among_restricts_probes(self, schema):
        routing = RoutingTable(schema=schema, matching="sfc")
        sub = Subscription(schema, {"x": (0.0, 50.0)}, sub_id="s")
        routing.table("east").add(sub)
        routing.table("__local__").add(Subscription(schema, {"x": (0.0, 50.0)}, sub_id="l"))
        event = Event(schema, {"x": 10.0, "y": 10.0})
        assert routing.matching_interfaces(event, among=["east"]) == ["east"]
        # Unknown interfaces in `among` are ignored, and tables outside it are
        # neither reported nor probed.
        lookups_before = routing.match_work()[0]
        assert routing.matching_interfaces(event, among=["east", "ghost"]) == ["east"]
        assert routing.match_work()[0] == lookups_before + 1

    def test_event_keys_batch_matches_per_event_keys(self, schema):
        routing = RoutingTable(schema=schema, matching="sfc")
        rng = random.Random(9)
        events = [random_event(schema, rng) for _ in range(30)]
        assert routing.event_keys(events) == [routing.event_key(e) for e in events]

    def test_linear_routing_table_has_no_keys(self, schema):
        routing = RoutingTable(schema=schema, matching="linear")
        event = Event(schema, {"x": 1.0, "y": 1.0})
        assert routing.event_key(event) is None
        assert routing.event_keys([event]) == [None]
        assert routing.match_work() == (0, 0, 0)


TOPOLOGIES = {
    "tree": tree_topology(7),
    "chain": chain_topology(5),
    "star": star_topology(6),
}


class TestNetworkSfcMatching:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("covering", ["exact", "approximate"])
    def test_delivery_audit_clean_on_all_topologies(self, schema, topology, covering):
        """Acceptance: zero missed and zero spurious deliveries with
        matching='sfc' on tree, chain and star overlays."""
        rng = random.Random(42)
        network = BrokerNetwork.from_topology(
            schema,
            TOPOLOGIES[topology],
            covering=covering,
            config=IndexConfig(epsilon=0.2, cube_budget=10_000),
            matching="sfc",
        )
        num_brokers = len(network.brokers)
        for i in range(60):
            network.subscribe(
                rng.randrange(num_brokers),
                f"client-{i}",
                random_subscription(schema, rng, f"sub-{i}", max_width=25.0),
            )
        for i in range(40):
            missed, extra = network.publish_and_audit(
                rng.randrange(num_brokers), random_event(schema, rng)
            )
            assert missed == set()
            assert extra == set()

    def test_audit_clean_under_unsubscription_churn(self, schema):
        rng = random.Random(77)
        network = BrokerNetwork.from_topology(
            schema, tree_topology(5), covering="exact", matching="sfc"
        )
        live = {}
        for step in range(80):
            if rng.random() < 0.6 or not live:
                sub = random_subscription(schema, rng, f"s{step}", max_width=25.0)
                client = f"c{step}"
                live[client] = sub
                network.subscribe(rng.randrange(5), client, sub)
            else:
                client = rng.choice(list(live))
                sub = live.pop(client)
                assert network.unsubscribe(client, sub.sub_id)
            if step % 4 == 0:
                missed, extra = network.publish_and_audit(
                    rng.randrange(5), random_event(schema, rng)
                )
                assert missed == set()
                assert extra == set()

    def test_publish_batch_equals_sequential_publish(self, schema):
        rng = random.Random(13)
        network = BrokerNetwork.from_topology(
            schema, tree_topology(7), covering="approximate", matching="sfc"
        )
        for i in range(40):
            network.subscribe(
                rng.randrange(7), f"c{i}", random_subscription(schema, rng, f"s{i}")
            )
        events = [random_event(schema, rng) for _ in range(25)]
        batch_deliveries = network.publish_batch(0, events)
        assert batch_deliveries == [network.expected_recipients(e) for e in events]

    def test_publish_batch_works_under_linear_matching(self, schema):
        network = BrokerNetwork.from_topology(
            schema, chain_topology(3), covering="none", matching="linear"
        )
        sub = Subscription(schema, {"x": (0.0, 50.0)}, sub_id="s")
        network.subscribe(2, "alice", sub)
        hit = Event(schema, {"x": 10.0, "y": 10.0})
        miss = Event(schema, {"x": 90.0, "y": 10.0})
        assert network.publish_batch(0, [hit, miss]) == [{"alice"}, set()]

    def test_match_index_counters_reported(self, schema):
        network = BrokerNetwork.from_topology(
            schema, chain_topology(3), covering="none", matching="sfc"
        )
        network.subscribe(2, "alice", Subscription(schema, {"x": (0.0, 50.0)}, sub_id="s"))
        network.publish(0, Event(schema, {"x": 10.0, "y": 10.0}))
        stats = network.collect_stats()
        assert stats.per_broker[0].match_index_lookups > 0

    def test_forwarding_after_suppression_clears_pending_entry(self, schema):
        """Regression: a duplicate arrival of a *suppressed* subscription that
        slips past a (budget-bounded) covering miss is forwarded — it must
        then leave the suppressed set, or a later withdrawal takes the
        suppressed early-exit and leaves a ghost entry in the strategy."""
        network = BrokerNetwork.from_topology(schema, chain_topology(2), covering="exact")
        broker0 = network.brokers[0]
        wide = Subscription(schema, {"x": (0.0, 90.0)}, sub_id="wide")
        narrow = Subscription(schema, {"x": (10.0, 20.0)}, sub_id="narrow")
        network.subscribe(0, "w", wide)
        network.subscribe(0, "n", narrow)
        assert "narrow" in broker0._suppressed[1]
        # Duplicate suppressed arrival while still covered: stays pending,
        # suppression counter is not double-incremented.
        broker0.receive_subscription("__local__", narrow)
        assert broker0.stats.subscriptions_suppressed == 1
        # Emulate the approximate detector missing the cover on a later
        # duplicate: drop the cover from the strategy's view only, then let
        # the duplicate arrive.  It is forwarded — and must leave the
        # suppressed set as it goes.
        broker0._forwarded[1].remove("wide")
        broker0._forwarded_ids[1].pop("wide", None)
        broker0.receive_subscription("__local__", narrow)
        assert broker0.has_forwarded(1, "narrow")
        assert "narrow" not in broker0._suppressed[1]
        # Withdrawal must now reach the strategy (no suppressed early-exit
        # hiding the forwarded state), so no ghost cover survives.
        network.unsubscribe("n", "narrow")
        assert not broker0.has_forwarded(1, "narrow")
        later = Subscription(schema, {"x": (12.0, 15.0)}, sub_id="later")
        network.subscribe(0, "l", later)
        assert broker0.has_forwarded(1, "later")


# Point-in-rectangle tests: ``Subscription.matches``, the flat match paths and
# ``MatchIndex._rect_contains`` (ordered-map backends) are early-exit loops;
# each must answer exactly what ``all(lo <= c <= hi ...)`` answers.
_ORDER = 4
_MAX_CELL = (1 << _ORDER) - 1


@st.composite
def rectangle_and_point(draw):
    """Per-axis ``(lo, hi)`` cell ranges and a point often on or beside a boundary."""
    dims = draw(st.integers(1, 3))
    ranges, cells = [], []
    for _ in range(dims):
        lo = draw(st.integers(0, _MAX_CELL))
        hi = draw(st.integers(lo, _MAX_CELL))
        near = [max(lo - 1, 0), lo, hi, min(hi + 1, _MAX_CELL)]
        cells.append(draw(st.sampled_from(near) | st.integers(0, _MAX_CELL)))
        ranges.append((lo, hi))
    return tuple(ranges), tuple(cells)


@given(rectangle_and_point())
def test_rectangle_checks_equal_all_of_the_axis_tests(case):
    ranges, cells = case
    expected = all(lo <= c <= hi for (lo, hi), c in zip(ranges, cells))
    # An attribute spanning [0, max cell] quantises every integer to itself.
    schema = AttributeSchema(
        [Attribute(f"a{axis}", 0.0, float(_MAX_CELL)) for axis in range(len(ranges))],
        order=_ORDER,
    )
    names = schema.names
    subscription = Subscription(
        schema, {name: (float(lo), float(hi)) for name, (lo, hi) in zip(names, ranges)}
    )
    event = Event(schema, {name: float(c) for name, c in zip(names, cells)})
    assert subscription.ranges == ranges and event.cells == cells
    assert subscription.matches(event) is expected
    for backend in ("flat", "avl"):
        index = MatchIndex(schema, config=IndexConfig(backend=backend))
        index.add("s", ranges)
        assert index._rect_contains("s", cells) is expected
        assert index.any_match(cells) is expected
        assert index.matching_ids(cells) == (["s"] if expected else [])
