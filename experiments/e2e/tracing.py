"""Span tracing applied from outside the program under test.

The benchmark may not edit ``src/``, so the per-layer numbers come from
wrappers installed around public entry points while a traced pass runs:

* a **method** is wrapped by replacing the attribute on its class;
* a **function imported by name** (``from x import f``) is wrapped at its use
  site, by replacing the name in the importing module's namespace.

Every wrapped call records one span ``(id, name, start, end, parent, op,
thread)`` in memory.  A layer's *self time* is its span's duration minus the
part its child spans cover, accumulated per span name as the spans close, so
the roll-up is complete even when the stored span list is capped.  Spans and
roll-up are written out only when the pass is over (:meth:`Tracer.write_jsonl`).

This module knows nothing about the program: the adapter supplies the
:class:`Target` list.  A target whose owner or attribute no longer exists is
reported as missing, never raised.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["Target", "Tracer"]

#: Stored spans are capped so a traced pass cannot exhaust memory; the
#: roll-up counts every span regardless.
MAX_STORED_SPANS = 400_000


class Target(NamedTuple):
    """One entry point to wrap.

    ``owner`` is a class (method wrap) or a module (use-site wrap); ``None``
    when the adapter could not resolve it.  ``measure`` optionally maps the
    call's result to an amount added to the counter named ``counter``
    (decomposition cubes produced, covering hits, bytes encoded).  ``drain``
    marks a generator function: the wrapper exhausts it inside the span and
    hands the caller an iterator over the collected items, because timing a
    generator's creation would measure nothing.
    """

    span: str
    owner: Optional[object]
    attr: str
    measure: Optional[Callable[[object], float]] = None
    counter: Optional[str] = None
    drain: bool = False


class _ThreadState:
    """Open-span stack and per-name aggregates of one thread."""

    __slots__ = ("name", "stack", "totals", "counters")

    def __init__(self, name: str) -> None:
        self.name = name
        # Each open span is [span_id, child_seconds].
        self.stack: List[List[float]] = []
        # span name -> [calls, self_seconds, total_seconds]
        self.totals: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}


class Tracer:
    """Installs span wrappers, collects spans, rolls them up per span name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._installed: List[Tuple[object, str, object]] = []
        self._ids = itertools.count(1)  # next() is atomic across threads
        self.control_thread = threading.current_thread().name
        self.spans: List[Tuple[int, str, float, float, int, int, str]] = []
        self.dropped_spans = 0
        #: Identifier of the benchmark operation in progress; every span
        #: started while it is set shares it (set by the runner per op).
        self.op = -1

    # ------------------------------------------------------------ installing
    def install(self, targets: List[Target]) -> List[str]:
        """Wrap every resolvable target; return ``owner.attr`` of the rest."""
        missing: List[str] = []
        for target in targets:
            original = self._lookup(target)
            if original is None:
                owner = getattr(target.owner, "__name__", "?")
                missing.append(f"{target.span}:{owner}.{target.attr}")
                continue
            setattr(target.owner, target.attr, self._wrap(original, target))
            self._installed.append((target.owner, target.attr, original))
        return missing

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @staticmethod
    def _lookup(target: Target) -> Optional[Callable]:
        if target.owner is None:
            return None
        if isinstance(target.owner, type):
            original = target.owner.__dict__.get(target.attr)
        else:
            original = getattr(target.owner, target.attr, None)
        # staticmethod/classmethod objects are not plain callables here and
        # no current target is one; treat them as unresolvable.
        return original if callable(original) else None

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _wrap(self, original: Callable, target: Target) -> Callable:
        name, measure, counter, drain = target.span, target.measure, target.counter, target.drain
        clock = self._clock
        spans = self.spans
        ids = self._ids
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            span_id = next(ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
                if drain:
                    result = iter(list(result))
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                agg = state.totals.get(name)
                if agg is None:
                    agg = state.totals[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration - frame[1]
                agg[2] += duration
                if len(spans) < MAX_STORED_SPANS:
                    spans.append((span_id, name, start, end, parent, tracer.op, state.name))
                else:
                    tracer.dropped_spans += 1

        if measure is None:
            return traced

        @functools.wraps(original)
        def traced_and_measured(*args, **kwargs):
            result = traced(*args, **kwargs)
            counters = tracer._state().counters
            counters[counter] = counters.get(counter, 0) + measure(result)
            return result

        return traced_and_measured

    # -------------------------------------------------------------- roll-up
    def rollup(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {calls, self_s, total_s}}`` summed over all threads."""
        out: Dict[str, Dict[str, float]] = {}
        for state in self._states:
            for name, (calls, self_s, total_s) in state.totals.items():
                row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                row["calls"] += calls
                row["self_s"] += self_s
                row["total_s"] += total_s
        return out

    def counters(self) -> Dict[str, float]:
        """Result-derived counters (see :class:`Target`) summed over all threads."""
        out: Dict[str, float] = {}
        for state in self._states:
            for name, value in state.counters.items():
                out[name] = out.get(name, 0) + value
        return out

    def control_self_seconds(self) -> float:
        """Summed self time of the spans recorded on the control thread.

        Self times of one thread tile that thread's root spans exactly, so
        this equals the time the caller spent inside traced API calls; the
        transport's loop thread works concurrently and is left out.
        """
        return sum(
            agg[1]
            for state in self._states
            if state.name == self.control_thread
            for agg in state.totals.values()
        )

    def write_jsonl(self, path: str) -> None:
        """One header line, then one line per stored span, in closing order."""
        with open(path, "w", encoding="utf-8") as out:
            header = {
                "fields": ["id", "name", "start", "end", "parent", "op", "thread"],
                "clock": "perf_counter seconds",
                "stored": len(self.spans),
                "dropped": self.dropped_spans,
                "rollup": self.rollup(),
                "counters": self.counters(),
            }
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
