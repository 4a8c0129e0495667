"""Hot-path profiling, wrapped around the broker stack from outside.

The hot paths — match-index probes, the flat store's merge-rebuild, covering
checks — are named once, in :data:`HOT_PATHS`, as ``(span name, owner,
attribute)``.  Nothing in the stack is decorated:
:meth:`HotPathProfiler.enable` replaces each attribute on its class with a
timing wrapper (the way the benchmark's span tracer wraps its targets) and
:meth:`HotPathProfiler.disable` puts the original functions back, so with
profiling off — the default — a probe is the plain function and pays
nothing.  ``PROFILER.enabled = True`` / ``False`` does the same, and
``REPRO_PROF=1`` in the environment enables the process-global
:data:`PROFILER` when ``repro`` is imported.

Collected data is per-name aggregates (call count, total/min/max seconds),
snapshotted via :meth:`HotPathProfiler.summary`.  Wall-clock timings are
inherently non-deterministic, so the default scrape never carries them: a
network's ``publish_metrics`` exports ``hot_path_calls_total`` /
``hot_path_seconds_total`` only while :data:`PROFILER` is enabled.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from typing import Callable, Dict, List, NamedTuple, Tuple

__all__ = [
    "HOT_PATHS",
    "HotPath",
    "PROFILER",
    "PROF_ENV",
    "HotPathProfiler",
    "profiling_requested",
]

#: Environment variable that turns the hot-path profiler on at import time.
PROF_ENV = "REPRO_PROF"


class HotPath(NamedTuple):
    """One profiled entry point: ``owner`` is ``"module.Class"``, ``attr`` a method."""

    name: str
    owner: str
    attr: str


_MATCH_INDEX = "repro.pubsub.match_index.MatchIndex"

#: The hot paths :data:`PROFILER` times, by the names :meth:`summary` reports.
HOT_PATHS: Tuple[HotPath, ...] = (
    HotPath("match_index.any_match", _MATCH_INDEX, "any_match"),
    HotPath("match_index.matching_ids", _MATCH_INDEX, "matching_ids"),
    HotPath("broker.covering_check", "repro.pubsub.broker.Broker", "_covering_check"),
    HotPath("flat_store.rebuild", "repro.index.sfc_array.FlatSegmentStore", "rebuild"),
)


def profiling_requested() -> bool:
    """True when ``REPRO_PROF`` asks for profiling (set and not ``0``)."""
    return os.environ.get(PROF_ENV, "") not in ("", "0")


def _resolve(owner: str) -> type:
    module, _, name = owner.rpartition(".")
    return getattr(importlib.import_module(module), name)


class _TimingAgg:
    __slots__ = ("calls", "total", "min", "max")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def add(self, elapsed: float) -> None:
        self.calls += 1
        self.total += elapsed
        if elapsed < self.min:
            self.min = elapsed
        if elapsed > self.max:
            self.max = elapsed


class HotPathProfiler:
    """Per-name timing aggregates of :attr:`hot_paths`, wrapped while enabled."""

    #: The table :meth:`enable` wraps; a subclass may name other paths.
    hot_paths: Tuple[HotPath, ...] = HOT_PATHS

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._timings: Dict[str, _TimingAgg] = {}
        # (owner class, attribute, original function) of every installed wrapper.
        self._installed: List[Tuple[type, str, Callable]] = []
        self._enabled = False

    # ------------------------------------------------------------- switching
    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        if value:
            self.enable()
        else:
            self.disable()

    def enable(self) -> None:
        """Wrap every hot path with a timer (idempotent)."""
        if self._enabled:
            return
        for path in self.hot_paths:
            owner = _resolve(path.owner)
            original = vars(owner)[path.attr]
            setattr(owner, path.attr, self._timed(path.name, original))
            self._installed.append((owner, path.attr, original))
        self._enabled = True

    def disable(self) -> None:
        """Put every original function back (idempotent); the timings are kept."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        self._enabled = False

    def _timed(self, name: str, fn: Callable) -> Callable:
        clock = self._clock
        record = self.record

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record(name, clock() - start)

        return timed

    # ------------------------------------------------------------ aggregates
    def record(self, name: str, elapsed: float) -> None:
        agg = self._timings.get(name)
        if agg is None:
            agg = self._timings[name] = _TimingAgg()
        agg.add(elapsed)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{name: {calls, total_s, mean_s, min_s, max_s}}``, sorted by name."""
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self._timings):
            agg = self._timings[name]
            out[name] = {
                "calls": agg.calls,
                "total_s": agg.total,
                "mean_s": agg.total / agg.calls if agg.calls else 0.0,
                "min_s": agg.min if agg.calls else 0.0,
                "max_s": agg.max,
            }
        return out

    def rows(self) -> List[Dict[str, object]]:
        """Summary as a row list (for ``ResultTable``-style reporting)."""
        return [
            {"hot_path": name, **stats} for name, stats in self.summary().items()
        ]

    def clear(self) -> None:
        """Drop every timing: the scrape's ``hot_path_*`` totals restart from 0
        (a counter reset, as after a process restart)."""
        self._timings.clear()

    def __len__(self) -> int:
        return len(self._timings)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self._enabled else "disabled"
        return f"HotPathProfiler({state}, hot_paths={len(self._timings)})"


#: Process-global profiler over :data:`HOT_PATHS`; ``REPRO_PROF=1`` enables it
#: when ``repro`` is imported, ``PROFILER.enabled = True`` at any later point.
PROFILER = HotPathProfiler()
