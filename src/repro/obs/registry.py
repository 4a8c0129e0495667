"""A small in-process metrics registry: labeled counters, gauges, histograms.

The registry is deliberately tiny and dependency-free — the subset of the
Prometheus data model the broker stack needs:

* **Counter** — a monotonically increasing total.  Besides the usual
  :meth:`Counter.inc`, counters support :meth:`Counter.set_total` so that the
  existing stats dataclasses (which keep incrementing their own fields on the
  hot path) can *publish* their running totals into the registry at collect
  time, collector-style, without paying a registry call per hot-path event.
* **Gauge** — a value that goes up and down (queue depths, table sizes).
* **Histogram** — fixed-bucket distribution with cumulative bucket counts,
  sum and count, rendered in Prometheus ``_bucket{le=...}`` form.  Latency
  histograms use the fixed log-spaced :data:`LATENCY_BUCKETS` so two runs
  bucket identically regardless of the observed values.

Every metric takes its label *names* at registration; samples are keyed by
the stringified label values, so exposition is deterministic (samples sort by
label tuple).  A disabled registry (``MetricsRegistry(enabled=False)``)
returns shared no-op metrics whose mutators do nothing — the hot-path cost of
instrumentation when observability is off is one attribute load and a no-op
method call.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
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

_METRIC_TYPES = ("counter", "gauge", "histogram")


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

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

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

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

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

    def _state(self, labels: Mapping[str, object]) -> _HistogramState:
        key = self._key(labels)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _HistogramState(len(self.buckets))
        return state

    def observe(self, value: float, **labels: object) -> None:
        state = self._state(labels)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                state.bucket_counts[i] += 1
                break
        state.total += value
        state.count += 1

    def observe_many(self, values: Iterable[float], **labels: object) -> None:
        for value in values:
            self.observe(value, **labels)

    def set_from(self, values: Iterable[float], **labels: object) -> None:
        """Rebuild one label set's distribution from scratch (collector sync)."""
        self._states[self._key(labels)] = _HistogramState(len(self.buckets))
        self.observe_many(values, **labels)

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


class _NullMetric:
    """Shared do-nothing stand-in returned by a disabled registry.

    Implements the union of the mutator/accessor surfaces so call sites never
    branch on whether observability is on.
    """

    name = "<disabled>"
    help = ""
    labelnames: Tuple[str, ...] = ()
    buckets: Tuple[float, ...] = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def set(self, value: float, **labels: object) -> None:
        pass

    def set_total(self, value: float, **labels: object) -> None:
        pass

    def observe(self, value: float, **labels: object) -> None:
        pass

    def observe_many(self, values: Iterable[float], **labels: object) -> None:
        pass

    def set_from(self, values: Iterable[float], **labels: object) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0.0

    def samples(self) -> List:
        return []


_NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Named metrics, registered once and shared by every instrumentation site.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first call
    registers, later calls return the same object (re-registering under a
    different type or label set raises, catching wiring mistakes early).  A
    disabled registry hands out a shared no-op metric instead, so hot paths
    pay one method call and nothing else when observability is off.
    """

    def __init__(self, enabled: bool = True, namespace: str = "repro") -> None:
        self.enabled = enabled
        self.namespace = namespace
        self._metrics: Dict[str, _Metric] = {}

    def _register(self, cls, name: str, help: str, labelnames: Sequence[str], **kwargs):
        if not self.enabled:
            return _NULL_METRIC
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
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({state}, metrics={len(self._metrics)})"
