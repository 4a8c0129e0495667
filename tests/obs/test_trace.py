"""Unit tests for trace-id derivation and the bounded span log."""

from __future__ import annotations

import pytest

from repro.obs.trace import Span, TraceLog, derive_trace_id, make_detail


class TestDeriveTraceId:
    def test_deterministic_and_seed_keyed(self):
        assert derive_trace_id(17, "evt", "event-0") == derive_trace_id(17, "evt", "event-0")
        assert derive_trace_id(17, "evt", "event-0") != derive_trace_id(18, "evt", "event-0")
        assert derive_trace_id(17, "evt", "event-0") != derive_trace_id(17, "evt", "event-1")

    def test_sixteen_hex_digits(self):
        tid = derive_trace_id(0, "evt", "e")
        assert len(tid) == 16
        int(tid, 16)  # parses as hex

    def test_none_seed_aliases_zero(self):
        assert derive_trace_id(None, "x") == derive_trace_id(0, "x")

    def test_distinct_across_many_ids(self):
        ids = {derive_trace_id(1, "evt", i) for i in range(1000)}
        assert len(ids) == 1000


class TestSpan:
    def test_detail_round_trip(self):
        detail = make_detail(decision="suppressed", covered_by="sub-3")
        span = Span("t" * 16, "covering", "check", detail=detail)
        assert dict(span.detail) == {"decision": "suppressed", "covered_by": "sub-3"}

    def test_end_property(self):
        span = Span("t" * 16, "hop", "hop", start=2.0, duration=0.5)
        assert span.end == 2.5


class TestTraceLog:
    def _span(self, tid, kind="hop", **kwargs):
        return Span(tid, kind, kind, **kwargs)

    def test_record_and_query(self):
        log = TraceLog(seed=7)
        tid = log.trace_id_for("evt", "e0")
        assert log.record(self._span(tid, parent=0, broker_id=1, hop=1))
        assert log.record(self._span(tid, kind="route", broker_id=1))
        assert len(log) == 2
        assert len(log.spans(trace_id=tid)) == 2
        assert len(log.spans(trace_id=tid, kind="hop")) == 1
        assert log.trace_ids() == [tid]

    def test_capacity_counts_dropped(self):
        log = TraceLog(capacity=2, seed=0)
        tid = log.trace_id_for("evt", "e")
        for _ in range(5):
            log.record(self._span(tid))
        assert len(log) == 2
        assert log.dropped == 3

    def test_disabled_log_records_nothing(self):
        log = TraceLog(seed=0, enabled=False)
        assert not log.record(self._span(log.trace_id_for("evt", "e")))
        assert len(log) == 0
        assert log.dropped == 0

    def test_every_trace_is_kept_up_to_capacity(self):
        log = TraceLog(capacity=150, seed=3)
        kept = [log.record(self._span(log.trace_id_for("evt", i))) for i in range(200)]
        assert kept == [True] * 150 + [False] * 50
        assert len(log.trace_ids()) == 150
        assert log.dropped == 50

    def test_hop_spans_sorted_and_edges(self):
        log = TraceLog(seed=0)
        tid = log.trace_id_for("evt", "e")
        log.record(self._span(tid, parent=1, broker_id=3, hop=2, start=2.0))
        log.record(self._span(tid, parent=0, broker_id=1, hop=1, start=1.0))
        assert [s.hop for s in log.hop_spans(tid)] == [1, 2]
        assert log.hop_edges(tid) == [(0, 1), (1, 3)]

    def test_bound_clock(self):
        log = TraceLog(seed=0)
        assert log.now() == 0.0
        log.bind_clock(lambda: 42.5)
        assert log.now() == 42.5

    def test_clear_resets_spans_and_dropped(self):
        log = TraceLog(capacity=1, seed=0)
        tid = log.trace_id_for("evt", "e")
        log.record(self._span(tid))
        log.record(self._span(tid))
        log.clear()
        assert len(log) == 0 and log.dropped == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TraceLog(capacity=-1)
