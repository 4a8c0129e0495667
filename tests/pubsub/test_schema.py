"""Tests for attribute schemas and quantisation."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.pubsub.schema import Attribute, AttributeSchema


def make_schema(order=8):
    return AttributeSchema(
        [Attribute("price", 0.0, 100.0), Attribute("volume", 0.0, 1000.0)], order=order
    )


class TestAttribute:
    def test_valid(self):
        a = Attribute("price", 0.0, 10.0)
        assert a.span == 10.0

    def test_invalid_domain(self):
        with pytest.raises(ValueError):
            Attribute("price", 5.0, 5.0)
        with pytest.raises(ValueError):
            Attribute("price", 5.0, 1.0)

    def test_empty_name(self):
        with pytest.raises(ValueError):
            Attribute("", 0.0, 1.0)


class TestSchemaConstruction:
    def test_basic(self):
        schema = make_schema()
        assert schema.names == ("price", "volume")
        assert schema.num_attributes == 2
        assert schema.max_cell == 255
        assert schema.attribute("volume").high == 1000.0

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            AttributeSchema([Attribute("a", 0, 1), Attribute("a", 0, 2)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AttributeSchema([])

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            AttributeSchema([Attribute("a", 0, 1)], order=0)

    def test_unknown_attribute(self):
        schema = make_schema()
        with pytest.raises(KeyError):
            schema.attribute("nope")


class TestValueQuantisation:
    def test_endpoints(self):
        schema = make_schema()
        assert schema.quantize_value("price", 0.0) == 0
        assert schema.quantize_value("price", 100.0) == 255

    def test_clamping(self):
        schema = make_schema()
        assert schema.quantize_value("price", -5.0) == 0
        assert schema.quantize_value("price", 500.0) == 255

    def test_dequantize_roundtrip_is_close(self):
        schema = make_schema(order=10)
        for value in (0.0, 13.7, 50.0, 99.9):
            cell = schema.quantize_value("price", value)
            assert abs(schema.dequantize_value("price", cell) - value) < 0.1

    def test_dequantize_validates_cell(self):
        schema = make_schema()
        with pytest.raises(ValueError):
            schema.dequantize_value("price", 256)

    def test_quantize_event(self):
        schema = make_schema()
        cells = schema.quantize_event({"price": 50.0, "volume": 500.0})
        assert len(cells) == 2
        assert 126 <= cells[0] <= 129

    def test_quantize_event_missing_attribute(self):
        schema = make_schema()
        with pytest.raises(ValueError):
            schema.quantize_event({"price": 50.0})

    @given(st.floats(0.0, 100.0))
    def test_quantisation_monotone(self, value):
        schema = make_schema()
        cell = schema.quantize_value("price", value)
        assert 0 <= cell <= schema.max_cell


class TestRangeQuantisation:
    def test_conservative_rounding(self):
        """Range endpoints round outwards so subscriptions never narrow."""
        schema = make_schema(order=4)  # 16 cells over [0, 100] → cell ≈ 6.67 wide
        lo, hi = schema.quantize_range("price", 10.0, 20.0)
        assert schema.dequantize_value("price", lo) <= 10.0
        assert schema.dequantize_value("price", hi) >= 20.0

    def test_invalid_range(self):
        schema = make_schema()
        with pytest.raises(ValueError):
            schema.quantize_range("price", 20.0, 10.0)

    def test_constraints_fill_unconstrained_attributes(self):
        schema = make_schema()
        ranges = schema.quantize_constraints({"price": (10.0, 20.0)})
        assert len(ranges) == 2
        assert ranges[1] == (0, schema.max_cell)

    def test_constraints_unknown_attribute_rejected(self):
        schema = make_schema()
        with pytest.raises(ValueError):
            schema.quantize_constraints({"cost": (1.0, 2.0)})

    @given(st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    def test_quantized_range_contains_quantized_values(self, a, b):
        """Any value inside the original range maps to a cell inside the quantised range."""
        low, high = min(a, b), max(a, b)
        schema = make_schema(order=6)
        lo_cell, hi_cell = schema.quantize_range("price", low, high)
        mid = (low + high) / 2
        assert lo_cell <= schema.quantize_value("price", mid) <= hi_cell
