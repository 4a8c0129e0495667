"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root declares the same names (with the
regression bound of each end-to-end metric); ``test_harness.py`` checks the
two stay in step.  Every workload reports every metric.

A per-layer metric is taken over the *fixed section* of the traced pass (the
first ``fixed_windows`` windows, the same work whatever the machine's speed),
from one of six sources:

``calls`` / ``self_s``
    roll-up of the spans with that name (self time = span minus child spans);
``traced``
    a counter the span wrappers derive from call results;
``delta``
    growth over the fixed section of a counter the layer keeps itself;
``gauge``
    such a counter's value at the end of the fixed section;
``share``
    a ratio of two of the above, ``0`` when the denominator is ``0``;
``direct``
    computed by the runner itself (op time per kind, the scrape, the tracing
    overhead).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "EndToEnd",
    "PerLayer",
    "percentile",
    "samples_beyond",
    "quartiles",
    "resolve_per_layer",
]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    source: str
    #: span or counter name; for a share, ``(numerator, denominator)`` keys
    #: into the already computed values of this table or the counter deltas.
    key: object


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower"),
    EndToEnd("subscribe_per_s", "1/s", "higher"),
    EndToEnd("subscribe_p90_ms", "ms", "lower"),
    EndToEnd("publish_per_s", "1/s", "higher"),
    EndToEnd("publish_p50_ms", "ms", "lower"),
    EndToEnd("publish_p95_ms", "ms", "lower"),
    EndToEnd("ops_per_s", "1/s", "higher"),
    EndToEnd("peak_rss_mb", "MB", "lower"),
    EndToEnd("routing_entries", "count", "lower"),
    EndToEnd("subscription_messages", "count", "lower"),
]


def _span(base: str, calls: bool = True, self_s: bool = True) -> List[PerLayer]:
    rows = []
    if calls:
        rows.append(PerLayer(f"{base}.calls", "count", "lower", "calls", base))
    if self_s:
        rows.append(PerLayer(f"{base}.self_s", "s", "lower", "self_s", base))
    return rows


PER_LAYER: List[PerLayer] = [
    # Which op kind the fixed section's time went to (traced, host-normalised):
    # the same ops for a seed, so directly comparable across commits.
    PerLayer("op.subscribe.busy_s", "s", "lower", "direct", "op.subscribe.busy_s"),
    PerLayer("op.unsubscribe.busy_s", "s", "lower", "direct", "op.unsubscribe.busy_s"),
    PerLayer("op.publish.busy_s", "s", "lower", "direct", "op.publish.busy_s"),
    *_span("sfc.key"),
    *_span("sfc.cube_key_ranges"),
    *_span("core.decomposition"),
    PerLayer("core.decomposition.cubes_out", "count", "lower", "traced", "core.decomposition.cubes_out"),
    *_span("core.covering.check"),
    *_span("core.covering.plan_build"),
    PerLayer(
        "core.covering.hit_share", "share", "higher", "share",
        ("traced:core.covering.hits", "core.covering.check.calls"),
    ),
    *_span("index.add"),
    *_span("index.remove"),
    *_span("index.rebuild"),
    *_span("index.stab"),
    PerLayer("index.segments", "count", "lower", "gauge", "index.segments"),
    *_span("match_index.add"),
    *_span("match_index.remove"),
    *_span("match_index.query"),
    PerLayer("match_index.candidates_checked", "count", "lower", "delta", "match_index.candidates_checked"),
    PerLayer(
        "match_index.fp_share", "share", "lower", "share",
        ("delta:match_index.false_positives", "match_index.candidates_checked"),
    ),
    PerLayer("match_index.runs_stored", "count", "lower", "gauge", "match_index.runs_stored"),
    *_span("routing_table.add", calls=False),
    *_span("routing_table.remove", calls=False),
    *_span("routing_table.matching_interfaces"),
    *_span("subscription_store.acquire"),
    PerLayer(
        "subscription_store.profile_cache_hit_share", "share", "higher", "share",
        ("delta:subscription_store.profile_cache_hits", "delta:subscription_store.profile_cache_lookups"),
    ),
    *_span("broker.receive_subscription"),
    *_span("broker.receive_unsubscription"),
    *_span("broker.receive_event"),
    PerLayer("broker.match_tests", "count", "lower", "delta", "broker.match_tests"),
    PerLayer("broker.promotions", "count", "lower", "delta", "broker.promotions"),
    PerLayer(
        "broker.suppressed_share", "share", "higher", "share",
        ("delta:broker.suppressed", "delta:broker.decisions"),
    ),
    *_span("network.subscribe", calls=False),
    *_span("network.unsubscribe", calls=False),
    *_span("network.publish", calls=False),
    *_span("network.flush", self_s=False),
    PerLayer("network.deliveries", "count", "lower", "delta", "network.deliveries"),
    *_span("sim.send"),
    *_span("sim.flush", calls=False),
    PerLayer("sim.kernel_steps", "count", "lower", "delta", "sim.kernel_steps"),
    PerLayer("sim.backpressure_retries", "count", "lower", "delta", "sim.backpressure_retries"),
    PerLayer("sim.max_queue_depth", "count", "lower", "gauge", "sim.max_queue_depth"),
    PerLayer("sim.sim_latency_p99", "sim_s", "lower", "gauge", "sim.sim_latency_p99"),
    *_span("net.send"),
    PerLayer("net.flush_wait_s", "s", "lower", "self_s", "net.flush"),
    *_span("net.encode"),
    *_span("net.decode"),
    PerLayer("net.frames_sent", "count", "lower", "delta", "net.frames_sent"),
    PerLayer("net.bytes_sent", "count", "lower", "traced", "net.bytes_sent"),
    PerLayer("net.frames_lost", "count", "lower", "delta", "net.frames_lost"),
    PerLayer("net.protocol_errors", "count", "lower", "delta", "net.protocol_errors"),
    PerLayer("obs.scrape_s", "s", "lower", "direct", "obs.scrape_s"),
    PerLayer("obs.scrape_bytes", "count", "lower", "direct", "obs.scrape_bytes"),
    PerLayer("trace.overhead_share", "share", "lower", "direct", "trace.overhead_share"),
    PerLayer("trace.self_sum_share", "share", "higher", "direct", "trace.self_sum_share"),
]


def _rank(count: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``count`` samples."""
    return min(count, max(1, math.ceil(count * q / 100)))


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sequence."""
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``-th percentile."""
    return count - _rank(count, q) if count else 0


def quartiles(values: Sequence[float]) -> Tuple[Optional[float], Optional[float], Optional[float]]:
    """``(q1, median, q3)`` of ``values`` (all ``None`` when empty)."""
    if not values:
        return None, None, None
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def resolve_per_layer(
    rollup: Dict[str, Dict[str, float]],
    traced: Dict[str, float],
    deltas: Dict[str, Optional[float]],
    gauges: Dict[str, Optional[float]],
    direct: Dict[str, Optional[float]],
) -> Dict[str, Optional[float]]:
    """Evaluate :data:`PER_LAYER` against one traced pass's raw material.

    A span that never ran yields ``0`` (the layer did no work); a counter the
    adapter could not read yields ``None`` (the field is gone, or the
    transport has no such layer).
    """
    values: Dict[str, Optional[float]] = {}

    def lookup(key: str) -> Optional[float]:
        if key.startswith("traced:"):
            return traced.get(key[7:], 0)
        if key.startswith("delta:"):
            return deltas.get(key[6:])
        return values.get(key)

    for metric in PER_LAYER:
        if metric.source in ("calls", "self_s"):
            values[metric.name] = rollup.get(metric.key, {}).get(metric.source, 0)
        elif metric.source == "traced":
            values[metric.name] = traced.get(metric.key, 0)
        elif metric.source == "delta":
            values[metric.name] = deltas.get(metric.key)
        elif metric.source == "gauge":
            values[metric.name] = gauges.get(metric.key)
        elif metric.source == "direct":
            values[metric.name] = direct.get(metric.key)
        else:
            numerator, denominator = (lookup(key) for key in metric.key)
            if numerator is None or denominator is None:
                values[metric.name] = None
            else:
                values[metric.name] = numerator / denominator if denominator else 0.0
    return values
