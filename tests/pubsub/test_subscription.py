"""Tests for subscriptions, events and matching."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.universe import Universe
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription
from repro.sfc.zorder import ZOrderCurve


@pytest.fixture
def schema():
    return AttributeSchema(
        [
            Attribute("stock", 0.0, 100.0),
            Attribute("volume", 0.0, 10_000.0),
            Attribute("current", 0.0, 200.0),
        ],
        order=10,
    )


class TestEvent:
    def test_construction_and_cells(self, schema):
        event = Event(schema, {"stock": 10.0, "volume": 1000.0, "current": 88.0})
        assert len(event.cells) == 3
        assert event.value("current") == 88.0

    def test_missing_attribute_rejected(self, schema):
        with pytest.raises(ValueError):
            Event(schema, {"stock": 10.0})

    def test_auto_ids_are_unique(self, schema):
        e1 = Event(schema, {"stock": 1.0, "volume": 1.0, "current": 1.0})
        e2 = Event(schema, {"stock": 1.0, "volume": 1.0, "current": 1.0})
        assert e1.event_id != e2.event_id


@st.composite
def order_and_cells(draw):
    """An order of 1–20 bits and the cells of an event over 1–8 attributes."""
    order = draw(st.integers(1, 20))
    max_cell = (1 << order) - 1
    dims = draw(st.integers(1, 8))
    cells = tuple(
        draw(st.sampled_from([0, max_cell]) | st.integers(0, max_cell)) for _ in range(dims)
    )
    return order, cells


class TestEventKey:
    @given(order_and_cells())
    def test_key_is_the_z_key_of_the_cells(self, case):
        """``Event.key`` is the Z key of the event's cells on its schema's grid:
        the Z curve's scalar key and a bit-by-bit interleave (most significant
        bit first, attribute 0 first within a bit) agree with it."""
        order, cells = case
        max_cell = (1 << order) - 1
        dims = len(cells)
        schema = AttributeSchema(
            [Attribute(f"a{i}", 0.0, float(max_cell)) for i in range(dims)], order=order
        )
        event = Event(schema, {f"a{i}": float(cell) for i, cell in enumerate(cells)})
        assert event.cells == cells
        interleaved = 0
        for bit in reversed(range(order)):
            for cell in cells:
                interleaved = interleaved << 1 | (cell >> bit) & 1
        assert event.key == ZOrderCurve(Universe(dims, order)).key(cells) == interleaved

    @given(order_and_cells(), st.data())
    def test_keys_keep_dominance_and_tell_cells_apart(self, case, data):
        """Two events on one grid: when one's cells dominate the other's
        attribute by attribute, so does its key (the Z curve's monotonicity,
        on which the dominance search rests), and equal keys mean equal
        cells."""
        order, cells = case
        max_cell = (1 << order) - 1
        schema = AttributeSchema(
            [Attribute(f"a{i}", 0.0, float(max_cell)) for i in range(len(cells))], order=order
        )
        other = tuple(data.draw(st.integers(0, max_cell)) for _ in cells)
        upper = tuple(data.draw(st.integers(cell, max_cell)) for cell in cells)

        def event(point):
            return Event(schema, {f"a{i}": float(cell) for i, cell in enumerate(point)})

        low, high = event(cells), event(upper)
        assert low.key <= high.key
        assert (low.key == high.key) is (cells == upper)
        assert (low.key == event(other).key) is (cells == other)

    def test_key_is_derived_once_and_never_carried(self, schema):
        """Read once, the key stays on the object; it is no field, so equality,
        ``repr``, pickling and copying ignore it."""
        event = Event(schema, {"stock": 10.0, "volume": 1000.0, "current": 88.0}, event_id="e")
        twin = Event(schema, dict(event.values), event_id="e")
        assert "key" not in vars(event)
        key = event.key
        assert vars(event)["key"] == key and event == twin and repr(event) == repr(twin)
        for clone in (pickle.loads(pickle.dumps(event)), copy.copy(event), copy.deepcopy(event)):
            assert "key" not in vars(clone) and clone.key == key


class TestSubscriptionMatching:
    def test_paper_motivating_example(self, schema):
        """[stock=IBM-ish, volume>500, current<95] matches [volume=1000, current=88]."""
        subscription = Subscription(
            schema, {"volume": (500.0, 10_000.0), "current": (0.0, 95.0)}
        )
        event = Event(schema, {"stock": 42.0, "volume": 1000.0, "current": 88.0})
        assert subscription.matches(event)
        non_matching = Event(schema, {"stock": 42.0, "volume": 100.0, "current": 88.0})
        assert not subscription.matches(non_matching)

    def test_unconstrained_attributes_match_anything(self, schema):
        subscription = Subscription(schema, {})
        event = Event(schema, {"stock": 99.0, "volume": 0.0, "current": 200.0})
        assert subscription.matches(event)

    def test_boundary_values_match(self, schema):
        subscription = Subscription(schema, {"current": (50.0, 95.0)})
        assert subscription.matches(Event(schema, {"stock": 0, "volume": 0, "current": 50.0}))
        assert subscription.matches(Event(schema, {"stock": 0, "volume": 0, "current": 95.0}))

    def test_auto_ids_unique(self, schema):
        s1 = Subscription(schema, {})
        s2 = Subscription(schema, {})
        assert s1.sub_id != s2.sub_id


class TestSubscriptionCovering:
    def test_wider_covers_narrower(self, schema):
        wide = Subscription(schema, {"current": (0.0, 95.0)})
        narrow = Subscription(schema, {"current": (10.0, 90.0), "volume": (500.0, 1000.0)})
        assert wide.covers(narrow)
        assert not narrow.covers(wide)

    def test_covering_is_reflexive(self, schema):
        sub = Subscription(schema, {"stock": (10.0, 20.0)})
        assert sub.covers(sub)

    def test_covering_implies_matching_containment(self, schema):
        """If s1 covers s2, every event matching s2 matches s1 (spot-checked)."""
        s1 = Subscription(schema, {"stock": (10.0, 60.0), "volume": (0.0, 5000.0)})
        s2 = Subscription(schema, {"stock": (20.0, 50.0), "volume": (100.0, 4000.0)})
        assert s1.covers(s2)
        for stock in (20.0, 35.0, 50.0):
            for volume in (100.0, 2000.0, 4000.0):
                event = Event(schema, {"stock": stock, "volume": volume, "current": 10.0})
                if s2.matches(event):
                    assert s1.matches(event)

    def test_schema_mismatch_rejected(self, schema):
        other_schema = AttributeSchema([Attribute("x", 0.0, 1.0)], order=4)
        sub = Subscription(schema, {})
        other_sub = Subscription(other_schema, {})
        other_event = Event(other_schema, {"x": 0.5})
        with pytest.raises(ValueError):
            sub.matches(other_event)
        with pytest.raises(ValueError):
            sub.covers(other_sub)
