"""Prometheus rendering / validation round-trips and the BENCH json convention."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs.exposition import (
    _fmt,
    render_prometheus,
    snapshot,
    validate_prometheus_text,
    write_bench_json,
)
from repro.obs.registry import MetricsRegistry


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("deliveries_total", help="events delivered", labelnames=("broker",)).set_total(
        3, broker=0
    )
    reg.gauge("routing_table_entries", help="stored entries").set(12)
    hist = reg.histogram("hop_latency_seconds", help="per-hop latency", buckets=(0.5, 1.0))
    hist.set_from([0.1, 0.7, 5.0])
    return reg


class TestFmt:
    @pytest.mark.parametrize(
        "value,text",
        [
            (3.0, "3"),
            (0.125, "0.125"),
            (math.inf, "+Inf"),
            (-math.inf, "-Inf"),
            (float("nan"), "NaN"),
            (1e18, "1e+18"),
        ],
    )
    def test_formatting(self, value, text):
        assert _fmt(value) == text


class TestRenderValidateRoundTrip:
    def test_round_trip(self):
        text = render_prometheus(_populated_registry())
        samples = validate_prometheus_text(text)
        assert samples["repro_deliveries_total"] == [({"broker": "0"}, 3.0)]
        assert samples["repro_routing_table_entries"] == [({}, 12.0)]
        buckets = samples["repro_hop_latency_seconds_bucket"]
        assert [v for _, v in buckets] == [1.0, 2.0, 3.0]  # cumulative + Inf
        assert buckets[-1][0]["le"] == "+Inf"
        assert samples["repro_hop_latency_seconds_count"] == [({}, 3.0)]

    def test_headers_present(self):
        text = render_prometheus(_populated_registry())
        assert "# HELP repro_deliveries_total events delivered" in text
        assert "# TYPE repro_deliveries_total counter" in text
        assert "# TYPE repro_hop_latency_seconds histogram" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
        assert snapshot(MetricsRegistry()) == {}

    def test_label_escaping_survives_validation(self):
        reg = MetricsRegistry()
        reg.counter("odd_total", labelnames=("name",)).set_total(1, name='a"b\\c')
        samples = validate_prometheus_text(render_prometheus(reg))
        ((labels, value),) = samples["repro_odd_total"]
        assert value == 1.0


class TestValidateRejectsMalformed:
    def test_sample_without_type_header(self):
        with pytest.raises(ValueError, match="no TYPE header"):
            validate_prometheus_text('# HELP x help\nx 1\n')

    def test_sample_without_help_header(self):
        with pytest.raises(ValueError, match="no HELP header"):
            validate_prometheus_text("# TYPE x counter\nx 1\n")

    def test_malformed_sample_line(self):
        with pytest.raises(ValueError, match="malformed"):
            validate_prometheus_text("# HELP x h\n# TYPE x counter\nx one two three\n")

    def test_malformed_value(self):
        with pytest.raises(ValueError, match="malformed value"):
            validate_prometheus_text("# HELP x h\n# TYPE x counter\nx abc\n")

    def test_non_cumulative_histogram_buckets(self):
        text = (
            "# HELP h h\n# TYPE h histogram\n"
            'h_bucket{le="1"} 5\nh_bucket{le="2"} 3\nh_bucket{le="+Inf"} 5\n'
            "h_sum 1\nh_count 5\n"
        )
        with pytest.raises(ValueError, match="not cumulative"):
            validate_prometheus_text(text)

    def test_missing_inf_bucket(self):
        text = (
            "# HELP h h\n# TYPE h histogram\n"
            'h_bucket{le="1"} 5\nh_sum 1\nh_count 5\n'
        )
        with pytest.raises(ValueError, match=r"\+Inf"):
            validate_prometheus_text(text)

    def test_inf_bucket_must_equal_count(self):
        text = (
            "# HELP h h\n# TYPE h histogram\n"
            'h_bucket{le="1"} 5\nh_bucket{le="+Inf"} 5\nh_sum 1\nh_count 7\n'
        )
        with pytest.raises(ValueError, match="_count"):
            validate_prometheus_text(text)


class TestSnapshot:
    def test_snapshot_is_json_serializable_and_complete(self):
        snap = snapshot(_populated_registry())
        json.dumps(snap)  # must not raise
        assert snap["repro_deliveries_total"]["type"] == "counter"
        hist = snap["repro_hop_latency_seconds"]
        assert hist["type"] == "histogram"
        ((series,),) = (hist["series"],)
        assert series["bucket_counts"] == [1, 2]  # cumulative, finite buckets
        assert series["count"] == 3


class TestWriteBenchJson:
    def test_convention(self, tmp_path):
        path = write_bench_json(tmp_path / "BENCH_x.json", {"b": 1, "a": 2})
        text = path.read_text()
        assert text == json.dumps({"b": 1, "a": 2}, indent=2, sort_keys=True) + "\n"
        assert json.loads(text) == {"a": 2, "b": 1}
