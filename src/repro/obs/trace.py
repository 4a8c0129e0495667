"""Deterministic per-message trace contexts and a bounded span log.

Every published event (and every subscription decision) can be traced through
the broker overlay as a sequence of :class:`Span` records — one per hop —
carrying the per-hop latency and the covering / suppression / match decision
taken at that hop.  Trace ids are **derived from the workload seed** with a
keyed hash rather than drawn from a clock or RNG, so two same-seed runs emit
byte-identical trace-id sequences (pinned by the determinism tests) and a
trace can be looked up after the fact from nothing but the seed and the
event id.

The :class:`TraceLog` keeps every span up to ``capacity``; spans beyond it
are counted as dropped, never resized, so memory stays bounded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

__all__ = ["Span", "TraceLog", "derive_trace_id"]

#: Span kinds recorded by the broker stack.
SPAN_KINDS = ("publish", "hop", "route", "covering", "phase")


def derive_trace_id(seed: Optional[int], *parts: object) -> str:
    """16-hex-digit trace id, a keyed hash of the workload seed and identifiers.

    Deterministic across processes and hash randomisation; the same
    ``(seed, parts)`` always names the same trace.
    """
    payload = "|".join([str(0 if seed is None else seed), *map(str, parts)])
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


@dataclass(frozen=True)
class Span:
    """One hop (or decision, or phase) of a trace.

    ``start`` and ``duration`` are in *simulated* time — the transport's
    clock — so they are deterministic under a seeded simulation.  ``detail``
    is a sorted tuple of ``(key, value)`` pairs (kept hashable so spans can be
    deduplicated and compared across runs).
    """

    trace_id: str
    kind: str
    name: str
    broker_id: Optional[Hashable] = None
    parent: Optional[Hashable] = None
    start: float = 0.0
    duration: float = 0.0
    hop: int = 0
    detail: Tuple[Tuple[str, object], ...] = ()

    @property
    def end(self) -> float:
        return self.start + self.duration


def make_detail(**kv: object) -> Tuple[Tuple[str, object], ...]:
    """Build a deterministic span-detail tuple from keyword pairs."""
    return tuple(sorted(kv.items()))


class TraceLog:
    """Bounded collector of :class:`Span` records.

    Parameters
    ----------
    capacity:
        Hard bound on stored spans; arrivals beyond it are counted in
        :attr:`dropped` instead of growing the log.
    seed:
        Workload seed the trace ids are derived from (see
        :func:`derive_trace_id`).
    enabled:
        A disabled log rejects every record at the cost of one attribute
        check; instrumentation sites hold ``None`` instead wherever they can,
        so the common disabled case costs a single ``is not None`` test.
    """

    def __init__(
        self,
        capacity: int = 4096,
        seed: Optional[int] = 0,
        enabled: bool = True,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self.seed = seed
        self.enabled = enabled
        self.dropped = 0
        self._spans: List[Span] = []
        self._clock: Optional[Callable[[], float]] = None

    # ------------------------------------------------------------------- wiring
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulated-time source (the network binds its transport)."""
        self._clock = clock

    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def trace_id_for(self, *parts: object) -> str:
        """Trace id of the given identifiers under this log's seed."""
        return derive_trace_id(self.seed, *parts)

    # ---------------------------------------------------------------- recording
    def record(self, span: Span) -> bool:
        """Append a span; returns True when it was stored."""
        if not self.enabled:
            return False
        if len(self._spans) >= self.capacity:
            self.dropped += 1
            return False
        self._spans.append(span)
        return True

    # ------------------------------------------------------------------ queries
    def __len__(self) -> int:
        return len(self._spans)

    def spans(
        self, trace_id: Optional[str] = None, kind: Optional[str] = None
    ) -> List[Span]:
        """Stored spans in record order, optionally filtered."""
        return [
            span
            for span in self._spans
            if (trace_id is None or span.trace_id == trace_id)
            and (kind is None or span.kind == kind)
        ]

    def trace_ids(self) -> List[str]:
        """Distinct trace ids in first-record order."""
        seen: Dict[str, None] = {}
        for span in self._spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def hop_spans(self, trace_id: str) -> List[Span]:
        """The trace's hop spans ordered by (arrival time, hop depth, broker)."""
        hops = self.spans(trace_id=trace_id, kind="hop")
        return sorted(hops, key=lambda s: (s.start, s.hop, str(s.broker_id)))

    def hop_edges(self, trace_id: str) -> List[Tuple[Hashable, Hashable]]:
        """``(sender, receiver)`` pairs of the trace's hops, in arrival order."""
        return [(span.parent, span.broker_id) for span in self.hop_spans(trace_id)]

    def clear(self) -> None:
        self._spans.clear()
        self.dropped = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        return (
            f"TraceLog({state}, spans={len(self._spans)}/{self.capacity}, "
            f"dropped={self.dropped})"
        )
