"""Unified observability layer: metrics, tracing, exposition and profiling.

The evaluation questions the paper motivates are answered by counters; the
scale/scenario work layered on top (simulated transports, churn scripts,
sharded indexes) needs those counters *live*, uniform and explainable
hop-by-hop.  This package is that substrate:

* :mod:`repro.obs.registry` — a :class:`MetricsRegistry` of labeled
  ``Counter`` / ``Gauge`` / ``Histogram`` metrics, one per
  :class:`~repro.pubsub.network.BrokerNetwork`, filled collector-style at
  scrape time so the hot paths never call it;
* :mod:`repro.obs.trace` — deterministic per-message trace contexts (trace
  ids derived from the workload seed) collected as one
  :class:`~repro.obs.trace.Span` per hop in a bounded
  :class:`~repro.obs.trace.TraceLog`;
* :mod:`repro.obs.exposition` — Prometheus text-format rendering plus a JSON
  snapshot writer compatible with the ``BENCH_*.json`` convention;
* :mod:`repro.obs.profiler` — timing wrappers installed around a table of
  hot paths while profiling is on (``REPRO_PROF=1``), absent when it is off.
"""

from .registry import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    HOP_BUCKETS,
    MetricsRegistry,
    log_buckets,
)
from .trace import Span, TraceLog, derive_trace_id
from .exposition import (
    render_prometheus,
    snapshot,
    validate_prometheus_text,
    write_bench_json,
)
from .profiler import HOT_PATHS, PROFILER, PROF_ENV, HotPathProfiler

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "HOP_BUCKETS",
    "MetricsRegistry",
    "log_buckets",
    "Span",
    "TraceLog",
    "derive_trace_id",
    "render_prometheus",
    "snapshot",
    "validate_prometheus_text",
    "write_bench_json",
    "PROFILER",
    "PROF_ENV",
    "HotPathProfiler",
    "HOT_PATHS",
]
