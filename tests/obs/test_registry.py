"""Unit tests for the metrics registry: counters, gauges, histograms, labels."""

from __future__ import annotations

import pytest

from repro.obs.registry import (
    HOP_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)


class TestLogBuckets:
    def test_log_spacing(self):
        buckets = log_buckets(0.001, 2.0, 4)
        assert buckets == (0.001, 0.002, 0.004, 0.008)

    def test_shared_bucket_constants_are_strictly_increasing(self):
        for bounds in (LATENCY_BUCKETS, HOP_BUCKETS):
            assert all(a < b for a, b in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("args", [(0.0, 2.0, 4), (0.1, 1.0, 4), (0.1, 2.0, 0)])
    def test_invalid_parameters_rejected(self, args):
        with pytest.raises(ValueError):
            log_buckets(*args)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("deliveries_total", labelnames=("broker",))
        c.set_total(1, broker=0)
        c.set_total(4, broker=0)
        c.set_total(1, broker=1)
        assert c.value(broker=0) == 4
        assert c.value(broker=1) == 1
        assert c.value(broker=99) == 0

    def test_set_total_publishes_running_total(self):
        c = Counter("events_total")
        c.set_total(17)
        c.set_total(42)  # idempotent collector sync: later totals replace
        assert c.value() == 42

    def test_wrong_label_set_rejected(self):
        c = Counter("events_total", labelnames=("broker",))
        with pytest.raises(ValueError):
            c.set_total(1)
        with pytest.raises(ValueError):
            c.set_total(1, broker=0, extra="x")

    def test_samples_sorted_by_label_tuple(self):
        c = Counter("events_total", labelnames=("broker",))
        for broker in (2, 0, 1):
            c.set_total(1, broker=broker)
        assert [labels for labels, _ in c.samples()] == [("0",), ("1",), ("2",)]


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("queue_depth", labelnames=("broker",))
        g.set(10, broker=0)
        g.set(12, broker=0)
        g.set(7, broker=0)  # a gauge goes down as well as up
        g.set(3, broker=1)
        assert g.value(broker=0) == 7
        assert g.value(broker=1) == 3


class TestHistogram:
    def test_bucket_counts_are_cumulative(self):
        h = Histogram("latency", buckets=(1.0, 2.0, 4.0))
        h.set_from([0.5, 1.5, 1.7, 3.0, 100.0])
        assert h.bucket_counts() == [1, 3, 4]  # 100.0 only lands in +Inf
        assert h.count_value() == 5
        assert h.sum_value() == pytest.approx(106.7)

    def test_set_from_rebuilds_one_label_set(self):
        h = Histogram("latency", labelnames=("kind",), buckets=(1.0, 2.0))
        h.set_from([0.5, 0.6], kind="a")
        h.set_from([1.5], kind="b")
        h.set_from([0.9], kind="a")  # replaces, not accumulates
        assert h.bucket_counts(kind="a") == [1, 1]
        assert h.bucket_counts(kind="b") == [0, 1]

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("latency", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("latency", buckets=())


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("events_total", help="events")
        b = reg.counter("events_total")
        assert a is b
        assert len(reg) == 1

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("events_total")
        with pytest.raises(ValueError):
            reg.gauge("events_total")

    def test_label_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("events_total", labelnames=("broker",))
        with pytest.raises(ValueError):
            reg.counter("events_total", labelnames=("curve",))

    def test_collect_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("zebra")
        reg.gauge("apple")
        assert [m.name for m in reg.collect()] == ["apple", "zebra"]

    def test_write_surface_is_collector_style(self):
        """A scrape copies running values in, so each metric has one writer
        and nothing increments a registry metric on a hot path."""
        reg = MetricsRegistry()
        writers = {
            reg.counter("c_total"): "set_total",
            reg.gauge("g"): "set",
            reg.histogram("h"): "set_from",
        }
        for metric, writer in writers.items():
            assert hasattr(metric, writer)
            for gone in ("inc", "dec", "observe", "observe_many"):
                assert not hasattr(metric, gone)

    def test_remove_drops_one_metric(self):
        reg = MetricsRegistry()
        reg.counter("events_total").set_total(3)
        reg.gauge("depth").set(1)
        reg.remove("events_total")
        reg.remove("never_registered")
        assert [metric.name for metric in reg.collect()] == ["depth"]
        assert reg.counter("events_total").value() == 0.0
