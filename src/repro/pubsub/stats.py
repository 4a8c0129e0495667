"""Metric collection for the publish/subscribe simulation.

The evaluation questions the paper motivates — how much routing-table growth
and subscription traffic does covering save, and how much of that saving does
*approximate* covering retain — are answered by counters collected here.  Each
broker owns a :class:`BrokerStats`; the network aggregates them into a
:class:`NetworkStats` snapshot after a workload has been replayed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional

from ..sim.transport import TransportStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.registry import MetricsRegistry

__all__ = ["BrokerStats", "NetworkStats", "TransportStats"]


@dataclass
class BrokerStats:
    """Per-broker counters."""

    subscriptions_received: int = 0
    subscriptions_stored: int = 0
    subscriptions_forwarded: int = 0
    subscriptions_suppressed: int = 0
    subscriptions_resynced: int = 0
    #: Suppressed subscriptions re-forwarded because their cover was withdrawn.
    promotions: int = 0
    covering_checks: int = 0
    #: Covering checks issued from inside a batch subscribe/withdraw pass.
    batch_covering_checks: int = 0
    covering_check_runs: int = 0
    events_received: int = 0
    events_forwarded: int = 0
    events_delivered_locally: int = 0
    #: Rectangle tests local delivery made: per event reaching the broker,
    #: every local subscription while the local table scans, the candidates
    #: of one probe of its match index once it has one.
    match_tests: int = 0
    match_index_lookups: int = 0
    match_index_candidates: int = 0
    match_index_false_positives: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary (for reporting).

        Field-driven (:func:`dataclasses.asdict`) so a newly added counter can
        never be silently dropped from reports; a drift-guard test pins this.
        """
        return asdict(self)


@dataclass
class NetworkStats:
    """Aggregate counters over the whole broker network plus per-broker detail.

    Attributes
    ----------
    routing_table_entries:
        Total number of subscription entries stored across all brokers'
        routing tables — the quantity covering is designed to shrink.
    subscription_messages:
        Total subscription-propagation messages sent between brokers.
    events_delivered / events_missed:
        Delivery bookkeeping against the ground truth (a missed delivery can
        only occur if an unsound covering decision suppressed a needed
        subscription; the SFC approximate detector never causes one).
    transport:
        The transport's counters and distributions — delivery-latency and
        hop-count percentiles, queue-depth high-water marks, backpressure
        retries and drops.  Under the synchronous transport all latencies are
        zero; under :class:`~repro.sim.transport.SimTransport` these are the
        timing metrics of the simulated run.
    phase_timings:
        Wall-clock seconds the network spent in each subscription-lifecycle
        phase (``subscribe`` / ``unsubscribe`` and their ``*_batch``
        variants), measured around the broker call plus the flush that drains
        its propagation.
    profile_cache_hits / profile_cache_misses:
        Shared :class:`~repro.pubsub.subscription_store.ProfileCache`
        counters: a hit means a subscription's covering geometry was reused
        instead of recomputed.
    match_run_cache_hits / match_run_cache_misses / match_run_cache_evictions:
        The same cache's match-run counters: a hit means a match index was
        handed a rectangle's key runs instead of decomposing it again; an
        eviction means the LRU bound dropped a rectangle's runs.
    """

    per_broker: Dict[Hashable, BrokerStats] = field(default_factory=dict)
    routing_table_entries: int = 0
    subscription_messages: int = 0
    unsubscription_messages: int = 0
    event_messages: int = 0
    events_delivered: int = 0
    events_missed: int = 0
    duplicate_deliveries: int = 0
    transport: Optional[TransportStats] = None
    phase_timings: Dict[str, float] = field(default_factory=dict)
    profile_cache_hits: int = 0
    profile_cache_misses: int = 0
    match_run_cache_hits: int = 0
    match_run_cache_misses: int = 0
    match_run_cache_evictions: int = 0

    @property
    def total_covering_checks(self) -> int:
        return sum(stats.covering_checks for stats in self.per_broker.values())

    @property
    def total_suppressed(self) -> int:
        return sum(stats.subscriptions_suppressed for stats in self.per_broker.values())

    @property
    def total_promotions(self) -> int:
        return sum(stats.promotions for stats in self.per_broker.values())

    @property
    def total_batch_covering_checks(self) -> int:
        return sum(stats.batch_covering_checks for stats in self.per_broker.values())

    def transport_summary(self) -> Dict[str, float]:
        """Flattened transport metrics (empty when no transport stats were attached)."""
        if self.transport is None:
            return {}
        return self.transport.as_dict()

    def summary_rows(self) -> List[Dict[str, float]]:
        """Return one row per broker for tabular reporting."""
        rows: List[Dict[str, float]] = []
        for broker_id, stats in sorted(self.per_broker.items(), key=lambda kv: str(kv[0])):
            row: Dict[str, float] = {"broker": broker_id}  # type: ignore[dict-item]
            row.update(stats.as_dict())
            rows.append(row)
        return rows

    def as_dict(self) -> Dict[str, object]:
        """One JSON-serializable snapshot of the whole network's counters.

        Includes the per-broker counters (keys stringified), the flattened
        transport summary, the wall-clock phase timings and the profile-cache
        counters — everything a ``BENCH_*.json`` consumer needs in one object.
        """
        return {
            "per_broker": {
                str(broker_id): stats.as_dict()
                for broker_id, stats in sorted(
                    self.per_broker.items(), key=lambda kv: str(kv[0])
                )
            },
            "routing_table_entries": self.routing_table_entries,
            "subscription_messages": self.subscription_messages,
            "unsubscription_messages": self.unsubscription_messages,
            "event_messages": self.event_messages,
            "events_delivered": self.events_delivered,
            "events_missed": self.events_missed,
            "duplicate_deliveries": self.duplicate_deliveries,
            "transport": self.transport_summary(),
            "phase_timings": dict(sorted(self.phase_timings.items())),
            "profile_cache_hits": self.profile_cache_hits,
            "profile_cache_misses": self.profile_cache_misses,
            "match_run_cache_hits": self.match_run_cache_hits,
            "match_run_cache_misses": self.match_run_cache_misses,
            "match_run_cache_evictions": self.match_run_cache_evictions,
        }

    def publish_to(self, registry: "MetricsRegistry") -> None:
        """Publish every counter into a metrics registry, collector-style.

        Called at scrape time (idempotent — re-publishing overwrites totals
        rather than double-counting), so the hot paths keep incrementing their
        plain dataclass fields and pay no registry call per event.  Wall-clock
        ``phase_timings`` are deliberately *not* published: Prometheus output
        must be byte-identical across same-seed runs, and wall time is not.
        They remain available via :meth:`as_dict` / the JSON snapshot.
        """
        from ..obs.registry import HOP_BUCKETS  # local import: obs is optional wiring

        broker_counters = registry.counter(
            "broker_counter_total",
            "Per-broker pub/sub counters, by counter name.",
            labelnames=("broker", "counter"),
        )
        for broker_id, stats in self.per_broker.items():
            for counter_name, value in stats.as_dict().items():
                broker_counters.set_total(
                    value, broker=str(broker_id), counter=counter_name
                )
        registry.gauge(
            "routing_table_entries",
            "Subscription entries stored across all routing tables "
            "(the quantity covering shrinks).",
        ).set(self.routing_table_entries)
        network_counters = registry.counter(
            "network_counter_total",
            "Network-wide pub/sub counters, by counter name.",
            labelnames=("counter",),
        )
        for counter_name in (
            "subscription_messages",
            "unsubscription_messages",
            "event_messages",
            "events_delivered",
            "events_missed",
            "duplicate_deliveries",
            "profile_cache_hits",
            "profile_cache_misses",
            "match_run_cache_hits",
            "match_run_cache_misses",
            "match_run_cache_evictions",
        ):
            network_counters.set_total(
                getattr(self, counter_name), counter=counter_name
            )
        transport = self.transport
        if transport is None:
            return
        transport_counters = registry.counter(
            "transport_counter_total",
            "Transport message counters, by counter name.",
            labelnames=("counter",),
        )
        for counter_name in (
            "messages_sent",
            "messages_delivered",
            "messages_dropped",
            "backpressure_retries",
        ):
            transport_counters.set_total(
                getattr(transport, counter_name), counter=counter_name
            )
        registry.gauge(
            "transport_max_queue_depth",
            "Highest inbox depth any broker reached.",
        ).set(transport.max_queue_depth)
        registry.histogram(
            "delivery_latency_seconds",
            "End-to-end publish-to-subscriber latency (simulated seconds).",
        ).set_from(transport.delivery_latencies)
        registry.histogram(
            "hop_latency_seconds",
            "Per-hop transport latency of event messages (simulated seconds).",
        ).set_from(transport.hop_latencies)
        registry.histogram(
            "event_hops",
            "Overlay hop distance of event messages at arrival.",
            buckets=HOP_BUCKETS,
        ).set_from(float(h) for h in transport.hop_counts)
