"""Run one workload in this interpreter: set up, time windows of ops, check, report.

Closed loop with one caller: the ``BrokerNetwork`` API is call-and-wait, so
the next op is issued when the previous one's ``flush()`` has returned.  An
op's latency is the wall-clock of exactly those API calls (``subscribe`` +
``flush``, ``unsubscribe`` + ``flush``, ``publish``); building the
``Subscription`` / ``Event`` objects and checking the answer happen outside it.

A run is

1. **set-up**, three times over (fresh network + bulk load of the same
   ``preload`` subscriptions; ``setup_s`` is the median, the last network is
   kept);
2. ``gc.collect()`` once, then the **timed phase**: the fixed section
   (``fixed_windows`` windows, always), then more windows until ``seconds``
   have passed.  In a traced pass the span wrappers are installed for the
   fixed section only; the windows after it run untraced and serve to size
   the tracing overhead;
3. an **audit**: extra publishes, each checked against
   ``expected_recipients``, none timed.

Host noise.  On the shared 2-core boxes this runs on, identical work takes
anything from 0.75x to 1.5x its median time, in regimes that last from a
fraction of a second to minutes — far more than any bound a regression gate
could use.  Two defences:

* a **reference kernel** (:class:`HostReference`: a fixed arithmetic loop plus
  a pointer-chasing walk, no allocation the collector tracks) is timed
  between ops, about 8 % of the time.  Its mean time over a window, against a
  nominal value, is the window's *host factor*; every latency of the window
  is divided by it before it enters a statistic.  Times are therefore
  reported as they would read on a host that runs the kernel in exactly the
  nominal time; the raw readings and the factors are kept beside them;
* throughputs are computed per window and reported as the median across
  windows, with the quartiles; latency percentiles are pooled over every
  timed op of the run (a stall touches a handful of samples out of hundreds)
  and report their sample count.
"""

from __future__ import annotations

import gc
import os
import platform
import random
import resource
import statistics
import time
import traceback
from typing import Dict, Hashable, List, Optional, Tuple

from . import adapter
from .metrics import (
    END_TO_END,
    percentile,
    quartiles,
    resolve_per_layer,
    samples_beyond,
)
from .tracing import Tracer
from .workloads import Workload

__all__ = ["run_workload", "HostReference"]

SETUP_REPEATS = 3
#: Hard stop of the timed phase, whatever ``seconds`` says.
MAX_WINDOWS = 150
#: Distinct event value sets generated per run; publishes cycle through them.
EVENT_POOL = 2048
#: Every n-th timed publish is checked against the ground truth.
CHECK_EVERY = 10
#: Tracebacks of failed ops kept in the result.
MAX_ERRORS = 5

_clock = time.perf_counter

Op = Tuple  # ("sub", broker, client, subscription) | ("unsub", client, sub_id) | ("pub", broker, event)


class HostReference:
    """Times a fixed kernel between ops to learn how fast the host is right now.

    The kernel mixes what slows the program down on a contended host: an
    arithmetic loop (sensitive to a busy sibling thread) and a walk over
    120,000 small tuples in shuffled order (sensitive to a neighbour evicting
    the cache).  Measured against real subscribes and publishes over 150 s of
    shifting contention, the mix tracks both with a log-log slope of 1.0-1.1
    and cuts the spread of identical work by a factor of three to four; either
    half alone has a slope of 0.85 or 1.3.  It allocates nothing the garbage
    collector tracks, so its own time does not depend on the heap.
    """

    #: Kernel time on a quiet host of the class the sizes were fitted on;
    #: reported times are scaled to a host where the kernel takes exactly this.
    NOMINAL_S = 0.0020
    #: A sample is taken once this much time has passed since the last one.
    INTERVAL_S = 0.025

    _POOL = 120_000
    _STRIDE = 6_000
    _SPINS = 13_000

    def __init__(self) -> None:
        order = list(range(self._POOL))
        random.Random(0).shuffle(order)
        cells = [(i,) for i in range(self._POOL)]
        self._cells = [cells[i] for i in order]
        self._cursor = 0
        self._samples: List[float] = []
        self._last = 0.0

    def sample(self) -> None:
        start_at = self._cursor
        self._cursor = (start_at + self._STRIDE) % (self._POOL - self._STRIDE)
        start = _clock()
        total = 0
        for i in range(self._SPINS):
            total += i * i
        for cell in self._cells[start_at : start_at + self._STRIDE]:
            total += cell[0]
        self._last = _clock()
        self._samples.append(self._last - start)

    def sample_if_due(self) -> None:
        if _clock() - self._last >= self.INTERVAL_S:
            self.sample()

    def take_factor(self) -> float:
        """Host factor over the samples since the last call (1.0 = nominal speed)."""
        samples, self._samples = self._samples, []
        return statistics.fmean(samples) / self.NOMINAL_S


def _stratified(constraints: List[Dict[str, Tuple[float, float]]]) -> List[Dict[str, Tuple[float, float]]]:
    """Reorder a scenario's subscriptions so every prefix has the pool's mix.

    What a subscription costs, and whether it gets covered, depends first on
    *which* attributes it constrains (a sensor "comfort band" costs a hundred
    times a "heat alarm" that is covered on arrival).  Drawn independently, the
    number of expensive ones in a few hundred subscriptions varies by 10–20 %
    from seed to seed, and every metric with it.  So the pool is grouped by
    constrained-attribute set and dealt out in proportion: after any number of
    subscriptions each group has supplied its share, to within one.  Every
    rectangle still comes from the seeded scenario builder, in builder order
    within its group.
    """
    groups: Dict[Tuple[str, ...], List[Dict[str, Tuple[float, float]]]] = {}
    for item in constraints:
        groups.setdefault(tuple(sorted(item)), []).append(item)
    keys = sorted(groups)
    shares = {key: len(groups[key]) / len(constraints) for key in keys}
    dealt = {key: 0 for key in keys}
    out: List[Dict[str, Tuple[float, float]]] = []
    for position in range(1, len(constraints) + 1):
        # The group furthest behind its share goes next (ties: fixed key order);
        # rounding can leave it empty one step before the others.
        open_keys = [k for k in keys if dealt[k] < len(groups[k])]
        key = max(open_keys, key=lambda k: shares[k] * position - dealt[k])
        out.append(groups[key][dealt[key]])
        dealt[key] += 1
    return out


class OpStream:
    """The seeded inputs of one run: preload, then window after window of ops.

    Everything is a function of ``(workload, seed)`` alone — how many windows
    end up running depends on the machine, which windows they are does not.
    Subscriptions arrive in the stratified order of :func:`_stratified`; an
    unsubscribe withdraws one of the oldest few live subscriptions (seeded
    choice), so withdrawals have the same mix as arrivals and a subscription
    lives for about ``preload / unsubscribes`` windows.  Clients come from a
    fixed pool per broker, so withdrawn subscriptions do not leave an
    ever-growing tail of empty client records behind.
    """

    #: A scenario pool this many times the subscriptions a long run can use,
    #: so the groups' shares barely move from seed to seed.
    POOL_FACTOR = 4

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self._rng = random.Random(seed)
        self.brokers = adapter.broker_ids(workload.overlay)
        needed = workload.preload + MAX_WINDOWS * workload.subscribes
        scenario = adapter.make_scenario(
            workload.scenario,
            num_subscriptions=self.POOL_FACTOR * needed,
            num_events=EVENT_POOL,
            seed=seed,
        )
        self.schema = scenario.schema
        self._constraints = _stratified(scenario.subscriptions)[:needed]
        self._event_values = scenario.events
        self._clients_per_broker = max(1, -(-workload.preload // len(self.brokers)))
        self._oldest = max(4, workload.preload // 8)
        self._next_sub = 0
        self._next_event = 0
        self._live: List[Tuple[Hashable, Hashable]] = []  # oldest first
        self.preload: Dict[Hashable, List[Tuple[Hashable, object]]] = {}
        for _ in range(workload.preload):
            _, broker, client, subscription = self._subscribe_op()
            self.preload.setdefault(broker, []).append((client, subscription))

    def _subscribe_op(self) -> Op:
        rng = self._rng
        broker = rng.choice(self.brokers)
        client = f"{broker}/c{rng.randrange(self._clients_per_broker)}"
        sub_id = f"s{self._next_sub}"
        constraints = self._constraints[self._next_sub % len(self._constraints)]
        self._next_sub += 1
        self._live.append((client, sub_id))
        return ("sub", broker, client, adapter.make_subscription(self.schema, constraints, sub_id))

    def _unsubscribe_op(self) -> Op:
        index = self._rng.randrange(min(self._oldest, len(self._live)))
        client, sub_id = self._live.pop(index)
        return ("unsub", client, sub_id)

    def _publish_op(self) -> Op:
        values = self._event_values[self._next_event % len(self._event_values)]
        event = adapter.make_event(self.schema, values, f"e{self._next_event}")
        self._next_event += 1
        return ("pub", self._rng.choice(self.brokers), event)

    def window(self) -> List[Op]:
        """The next window: a seeded shuffle of the workload's fixed op counts."""
        workload = self.workload
        kinds = (
            ["sub"] * workload.subscribes
            + ["unsub"] * workload.unsubscribes
            + ["pub"] * workload.publishes
        )
        self._rng.shuffle(kinds)
        make = {"sub": self._subscribe_op, "unsub": self._unsubscribe_op, "pub": self._publish_op}
        return [make[kind]() for kind in kinds]

    def audit(self) -> List[Op]:
        return [self._publish_op() for _ in range(self.workload.audit_publishes)]


class _Tally:
    """Attempted / failed ops of a run, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checked_publishes = 0
        self.errors: List[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(reason)


def _run_window(
    network,
    ops: List[Op],
    tally: _Tally,
    host: HostReference,
    tracer: Optional[Tracer] = None,
    check_every: int = CHECK_EVERY,
) -> Dict[str, object]:
    """Issue ``ops`` one after the other.

    Returns the raw latencies per op kind and the window's host factor.
    """
    latencies: Dict[str, List[float]] = {"sub": [], "unsub": [], "pub": []}
    published = 0
    host.sample()
    for op in ops:
        kind = op[0]
        tally.attempted += 1
        if tracer is not None:
            tracer.op = tally.attempted
        try:
            if kind == "pub":
                _, broker, event = op
                start = _clock()
                delivered = network.publish(broker, event)
                elapsed = _clock() - start
                published += 1
                if published % check_every == 0:
                    tally.checked_publishes += 1
                    expected = network.expected_recipients(event, origin=broker)
                    if delivered != expected:
                        tally.fail(
                            f"{event.event_id} at {broker}: missed "
                            f"{sorted(expected - delivered)}, extra {sorted(delivered - expected)}"
                        )
                        continue
            elif kind == "sub":
                _, broker, client, subscription = op
                start = _clock()
                network.subscribe(broker, client, subscription)
                network.flush()
                elapsed = _clock() - start
            else:
                _, client, sub_id = op
                start = _clock()
                found = network.unsubscribe(client, sub_id)
                network.flush()
                elapsed = _clock() - start
                if not found:
                    tally.fail(f"unsubscribe({client}, {sub_id}) returned False for a live id")
                    continue
        except Exception:  # an op that raises is a failed op, not a failed run
            tally.fail(traceback.format_exc(limit=6))
            continue
        latencies[kind].append(elapsed)
        host.sample_if_due()
    host.sample()
    return {**latencies, "host": host.take_factor()}


def _set_up(workload: Workload, stream: OpStream, seed: int, host: HostReference):
    """Build and bulk-load the network ``SETUP_REPEATS`` times; keep the last.

    Returns ``(raw seconds per repeat, host factor per repeat, system)``.  The
    reference kernel runs between the per-broker bulk loads, outside the
    timed segments.
    """
    raw: List[float] = []
    factors: List[float] = []
    system = None
    for _ in range(SETUP_REPEATS):
        if system is not None:
            # A network is a web of reference cycles; collect the discarded
            # one now (outside the timing) so the memory high-water mark is
            # that of one network, not of three.
            system.close()
            system = None
            gc.collect()
        host.sample()
        start = _clock()
        system = adapter.open_system(workload.overlay, workload.transport, stream.schema, seed)
        elapsed = _clock() - start
        try:
            for broker, items in stream.preload.items():
                host.sample()
                start = _clock()
                system.network.subscribe_batch(broker, items)
                elapsed += _clock() - start
        except BaseException:
            system.close()
            raise
        host.sample()
        raw.append(elapsed)
        factors.append(host.take_factor())
    return raw, factors, system


def _raw_busy(window: Dict[str, object]) -> float:
    """Wall-clock the window's ops took."""
    return sum(sum(window[kind]) for kind in ("sub", "unsub", "pub"))


def _busy(window: Dict[str, object]) -> float:
    """Host-normalised time the window's ops took."""
    return _raw_busy(window) / window["host"]


def _per_layer(
    tracer: Tracer,
    fixed: List[Dict[str, object]],
    calibration: List[Dict[str, object]],
    before: Dict[str, Optional[float]],
    snapshot: Dict[str, Optional[float]],
    network,
) -> Dict[str, Optional[float]]:
    """Every per-layer metric of a traced pass (see :mod:`.metrics`)."""
    traced_busy = [_busy(window) for window in fixed]
    raw_busy = sum(_raw_busy(window) for window in fixed)
    # One factor for the whole fixed section, weighted by where the time
    # went, brings the spans' self times to nominal host speed.
    fixed_factor = raw_busy / sum(traced_busy)
    scrape_start = _clock()
    scraped = network.scrape()
    direct = {
        "obs.scrape_s": _clock() - scrape_start,
        "obs.scrape_bytes": len(scraped.encode("utf-8")),
        "trace.overhead_share": statistics.median(traced_busy)
        / statistics.median(_busy(window) for window in calibration)
        - 1.0,
        "trace.self_sum_share": tracer.control_self_seconds() / raw_busy,
    }
    for kind, name in (("sub", "subscribe"), ("unsub", "unsubscribe"), ("pub", "publish")):
        direct[f"op.{name}.busy_s"] = sum(sum(window[kind]) / window["host"] for window in fixed)
    deltas = {
        key: (None if value is None or before.get(key) is None else value - before[key])
        for key, value in snapshot.items()
    }
    rollup = tracer.rollup()
    for row in rollup.values():
        row["self_s"] /= fixed_factor
    return resolve_per_layer(rollup, tracer.counters(), deltas, snapshot, direct)


def _end_to_end(
    windows: List[Dict[str, object]],
    setup_raw: List[float],
    setup_factors: List[float],
    snapshot: Dict[str, Optional[float]],
) -> Dict[str, Dict[str, object]]:
    """Every :data:`END_TO_END` metric as ``{value, unit, ...}``."""
    pooled: Dict[str, List[float]] = {kind: [] for kind in ("sub", "unsub", "pub")}
    raw_pooled: Dict[str, List[float]] = {kind: [] for kind in pooled}
    for window in windows:
        for kind in pooled:
            pooled[kind].extend(lat / window["host"] for lat in window[kind])
            raw_pooled[kind].extend(window[kind])
    for kind in pooled:
        pooled[kind].sort()
        raw_pooled[kind].sort()

    def per_second(kinds: Tuple[str, ...], normalised: bool) -> List[float]:
        out = []
        for window in windows:
            count = sum(len(window[kind]) for kind in kinds)
            busy = sum(sum(window[kind]) for kind in kinds)
            if busy > 0:
                out.append(count * (window["host"] if normalised else 1.0) / busy)
        return out

    throughputs = {
        "subscribe_per_s": ("sub",),
        "publish_per_s": ("pub",),
        "ops_per_s": ("sub", "unsub", "pub"),
    }
    percentiles = {
        "subscribe_p90_ms": ("sub", 90),
        "publish_p50_ms": ("pub", 50),
        "publish_p95_ms": ("pub", 95),
    }
    out: Dict[str, Dict[str, object]] = {}
    for metric in END_TO_END:
        row: Dict[str, object] = {"unit": metric.unit}
        if metric.name == "setup_s":
            values = [raw / factor for raw, factor in zip(setup_raw, setup_factors)]
            q1, median, q3 = quartiles(values)
            row.update(
                value=median, q1=q1, q3=q3, samples=len(values),
                raw_value=statistics.median(setup_raw),
            )
        elif metric.name in throughputs:
            values = per_second(throughputs[metric.name], normalised=True)
            q1, median, q3 = quartiles(values)
            row.update(
                value=median, q1=q1, q3=q3, samples=len(values), windows=values,
                raw_value=statistics.median(per_second(throughputs[metric.name], False)),
            )
        elif metric.name in percentiles:
            kind, q = percentiles[metric.name]
            count = len(pooled[kind])
            row.update(
                value=percentile(pooled[kind], q) * 1e3 if count else None,
                raw_value=percentile(raw_pooled[kind], q) * 1e3 if count else None,
                samples=count,
                samples_beyond=samples_beyond(count, q),
            )
        else:
            row.update(value=snapshot.get(metric.name))
        out[metric.name] = row
    return out


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    trace_path: Optional[str] = None,
) -> Dict[str, object]:
    """Run one pass of one workload; return its full result (JSON-ready)."""
    host = HostReference()
    for _ in range(5):
        host.sample()
    factor_before = host.take_factor()
    stream = OpStream(workload, seed)
    setup_raw, setup_factors, system = _set_up(workload, stream, seed, host)
    tally = _Tally()
    tracer: Optional[Tracer] = None
    trace_missing: List[str] = []
    try:
        network = system.network
        gc.collect()
        before = adapter.layer_counters(system)
        if trace:
            tracer = Tracer()
            trace_missing = tracer.install(adapter.trace_targets())
        windows: List[Dict[str, object]] = []
        entries_at_window_end: List[int] = []
        started = _clock()
        try:
            for _ in range(workload.fixed_windows):
                windows.append(_run_window(network, stream.window(), tally, host, tracer))
                entries_at_window_end.append(network.routing_table_entries())
        finally:
            if tracer is not None:
                tracer.uninstall()
        fixed_seconds = _clock() - started
        # End of the fixed section: the same work on every machine, so counts
        # and the memory high-water mark are read here.
        snapshot = adapter.layer_counters(system)
        snapshot["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # The table churns by a third per window; its mean over the section's
        # window ends says how much state covering leaves, with less luck in it
        # than the last reading alone.
        snapshot["routing_entries"] = statistics.fmean(entries_at_window_end)
        # Open section, untraced in either pass; a traced pass needs at least
        # one such window to size its overhead against.
        while len(windows) < MAX_WINDOWS and (
            _clock() - started < seconds or (trace and len(windows) == workload.fixed_windows)
        ):
            windows.append(_run_window(network, stream.window(), tally, host))
        timed_seconds = _clock() - started
        _run_window(network, stream.audit(), tally, host, check_every=1)

        result: Dict[str, object] = {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "sizes": {
                "overlay": workload.overlay,
                "transport": workload.transport,
                "scenario": workload.scenario,
                "preload": workload.preload,
                "window": [workload.subscribes, workload.unsubscribes, workload.publishes],
                "fixed_windows": workload.fixed_windows,
                "audit_publishes": workload.audit_publishes,
            },
            "windows": len(windows),
            "fixed_seconds": fixed_seconds,
            "timed_seconds": timed_seconds,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "checked_publishes": tally.checked_publishes,
            "errors": tally.errors,
            "setup_s_raw": setup_raw,
        }
        if trace:
            fixed, calibration = windows[: workload.fixed_windows], windows[workload.fixed_windows :]
            result["per_layer"] = _per_layer(tracer, fixed, calibration, before, snapshot, network)
            result["trace_missing"] = trace_missing
            result["calibration_windows"] = len(calibration)
            result["spans"] = {"stored": len(tracer.spans), "dropped": tracer.dropped_spans}
            if trace_path is not None:
                tracer.write_jsonl(trace_path)
        else:
            result["end_to_end"] = _end_to_end(windows, setup_raw, setup_factors, snapshot)
        # Reported by both passes so that two same-seed runs can be compared
        # on their counts whichever pass they were.
        result["routing_entries"] = snapshot.get("routing_entries")
        result["subscription_messages"] = snapshot.get("subscription_messages")
    finally:
        system.close()
    for _ in range(5):
        host.sample()
    result["host"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        # The reference kernel's time (ms) around the run, and the factor
        # (kernel time / nominal) each set-up and each window was scaled by.
        "host_spin_ms": {
            "nominal": HostReference.NOMINAL_S * 1e3,
            "before": factor_before * HostReference.NOMINAL_S * 1e3,
            "after": host.take_factor() * HostReference.NOMINAL_S * 1e3,
        },
        "setup_factors": setup_factors,
        "window_factors": [window["host"] for window in windows],
        **adapter.library_versions(),
    }
    return result
