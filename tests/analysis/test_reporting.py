"""Tests for the plain-text reporting helpers."""

from __future__ import annotations

import pytest

from repro.analysis.reporting import ResultTable, format_bar_chart, format_table


class TestFormatTable:
    def test_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_basic_layout(self):
        rows = [{"name": "a", "value": 1}, {"name": "bb", "value": 2.5}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 2 + 1 + 2  # title + header + separator + 2 rows

    def test_columns_are_every_key_and_missing_cells_blank(self):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        lines = format_table(rows).splitlines()
        assert lines[0].split() == ["a", "|", "b"]
        assert lines[2].split() == ["1", "|"] and lines[3].split() == ["2", "|", "3"]

    def test_boolean_rendering(self):
        text = format_table([{"ok": True}, {"ok": False}])
        assert "yes" in text and "no" in text

    def test_float_precision(self):
        text = format_table([{"x": 0.123456789}], precision=3)
        assert "0.123" in text and "0.1234" not in text


class TestFormatBarChart:
    def test_empty(self):
        assert "(no data)" in format_bar_chart([], [], title="none")

    def test_scaling(self):
        text = format_bar_chart(["a", "b"], [1.0, 2.0])
        lines = text.splitlines()
        assert lines[0].count("#") == 25
        assert lines[1].count("#") == 50

    def test_zero_values(self):
        text = format_bar_chart(["a"], [0.0])
        assert "#" not in text

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            format_bar_chart(["a"], [1.0, 2.0])


class TestResultTable:
    def test_add_and_column(self):
        table = ResultTable("t")
        table.add(x=1, y="a")
        table.add(x=2)
        assert len(table) == 2
        assert table.column("x") == [1, 2]
        assert table.column("y") == ["a", None]

    def test_extend(self):
        table = ResultTable("t")
        table.extend([{"x": 1}, {"x": 2}])
        assert len(table) == 2

    def test_to_text_includes_title(self):
        table = ResultTable("my experiment")
        table.add(x=1)
        assert table.to_text().splitlines()[0] == "my experiment"
