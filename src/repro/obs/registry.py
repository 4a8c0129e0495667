"""A small in-process metrics registry: labeled counters, gauges, histograms.

The registry is deliberately tiny and dependency-free — the subset of the
Prometheus data model the broker stack needs.  It is written collector-style:
the hot paths keep incrementing their own plain counters and a scrape copies
each running value in, so no hot-path event pays a registry call, and each
metric type has one writer:

* **Counter** — a monotonically increasing total, published whole with
  :meth:`Counter.set_total`.
* **Gauge** — a value that goes up and down (queue depths, table sizes),
  published with :meth:`Gauge.set`.
* **Histogram** — fixed-bucket distribution with cumulative bucket counts,
  sum and count, rendered in Prometheus ``_bucket{le=...}`` form and rebuilt
  from the retained observations with :meth:`Histogram.set_from`.  Latency
  histograms use the fixed log-spaced :data:`LATENCY_BUCKETS` so two runs
  bucket identically regardless of the observed values.

Every metric takes its label *names* at registration; samples are keyed by
the stringified label values, so exposition is deterministic (samples sort by
label tuple).  Every exposed name carries the :data:`NAMESPACE` prefix.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "NAMESPACE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "HOP_BUCKETS",
    "log_buckets",
]


def log_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` log-spaced bucket bounds: ``start * factor**i``.

    Fixed at registration time, so histograms from two runs are structurally
    identical whatever values they observed.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError(
            f"log_buckets needs start > 0, factor > 1, count >= 1; "
            f"got ({start}, {factor}, {count})"
        )
    return tuple(start * factor**i for i in range(count))


#: Fixed log-spaced latency buckets (seconds): 1 ms doubling up to ~131 s.
#: Shared by every latency histogram so per-hop and end-to-end distributions
#: are directly comparable.
LATENCY_BUCKETS = log_buckets(0.001, 2.0, 18)

#: Overlay hop-count buckets (events rarely travel further than the diameter
#: of the largest benchmark topologies).
HOP_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)

#: Prefix of every exposed metric name (``repro_<name>``).
NAMESPACE = "repro"


class _Metric:
    """Shared label plumbing of all metric types."""

    metric_type = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)

    def _key(self, labels: Mapping[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)


class Counter(_Metric):
    """A monotonically increasing total, optionally labeled."""

    metric_type = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set_total(self, value: float, **labels: object) -> None:
        """Publish an externally maintained running total (collector sync)."""
        self._values[self._key(labels)] = float(value)

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        return sorted(self._values.items())


class Gauge(_Metric):
    """A value that can go up and down, optionally labeled."""

    metric_type = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._values[self._key(labels)] = float(value)

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        return sorted(self._values.items())


class _HistogramState:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * num_buckets
        self.total = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket distribution; bounds are per-bucket upper edges (``le``)."""

    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(nxt <= prev for prev, nxt in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name!r} buckets must be strictly increasing")
        self.buckets = bounds
        self._states: Dict[Tuple[str, ...], _HistogramState] = {}

    def set_from(self, values: Iterable[float], **labels: object) -> None:
        """Rebuild one label set's distribution from scratch (collector sync)."""
        state = self._states[self._key(labels)] = _HistogramState(len(self.buckets))
        for value in values:
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    state.bucket_counts[i] += 1
                    break
            state.total += value
            state.count += 1

    def bucket_counts(self, **labels: object) -> List[int]:
        """Cumulative per-bucket counts (the ``le`` semantics of exposition)."""
        state = self._states.get(self._key(labels))
        if state is None:
            return [0] * len(self.buckets)
        cumulative, running = [], 0
        for count in state.bucket_counts:
            running += count
            cumulative.append(running)
        return cumulative

    def sum_value(self, **labels: object) -> float:
        state = self._states.get(self._key(labels))
        return state.total if state is not None else 0.0

    def count_value(self, **labels: object) -> int:
        state = self._states.get(self._key(labels))
        return state.count if state is not None else 0

    def samples(self) -> List[Tuple[Tuple[str, ...], _HistogramState]]:
        return sorted(self._states.items())


class MetricsRegistry:
    """Named metrics, registered once and shared by every instrumentation site.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first call
    registers, later calls return the same object (re-registering under a
    different type or label set raises, catching wiring mistakes early).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _register(self, cls, name: str, help: str, labelnames: Sequence[str], **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.metric_type} "
                    f"with labels {existing.labelnames}"
                )
            return existing
        metric = cls(name, help=help, labelnames=labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def remove(self, name: str) -> None:
        """Drop the metric ``name``, if registered, with all its series."""
        self._metrics.pop(name, None)

    def collect(self) -> List[_Metric]:
        """Every registered metric, sorted by name (exposition order)."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Drop every registered metric (tests and scrape isolation)."""
        self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry(metrics={len(self._metrics)})"
