"""Transport abstraction for inter-broker messages: synchronous or simulated.

The broker overlay (:class:`repro.pubsub.BrokerNetwork`) routes every
subscription, unsubscription and event message between brokers through a
:class:`Transport`.  Two implementations are provided:

* :class:`SyncTransport` — the historical behaviour: messages are delivered
  immediately, inline, in the caller's stack frame.  Zero latency, no
  queueing, no failures; simulated time is frozen at ``0.0``.
* :class:`SimTransport` — messages travel through a deterministic
  discrete-event kernel (:class:`repro.sim.kernel.EventKernel`): each send
  samples a per-link delay from a :class:`~repro.sim.latency.LatencyModel`,
  arrivals land in a bounded per-broker inbox drained at a configurable
  service rate, and a full inbox pushes back (the message retries later and a
  backpressure counter ticks — messages are delayed, never silently lost, so
  the paper's safety claim stays checkable).  Each overlay link is an ordered
  channel: per-link arrival times are strictly increasing and backpressure
  holds a link's later messages behind a rejected one, because the broker
  protocol assumes a subscription and its later withdrawal arrive in order.
  Brokers can crash, recover and join mid-run; while a broker is down,
  messages addressed to it are dropped and counted.

Both transports share :class:`TransportStats`: message counters, per-broker
queue depth high-water marks, end-to-end delivery latencies and per-message
hop counts, with percentile helpers for reporting.  The latency and hop
samples are windows of the most recent :data:`RETENTION`, so a network that
runs for a day holds no more of them than one that ran for a minute.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, Optional, Sequence, Tuple, Union

from .kernel import EventKernel
from .latency import FixedLatency, LatencyModel

__all__ = [
    "MESSAGE_KINDS",
    "RETENTION",
    "Message",
    "Transport",
    "SyncTransport",
    "SimTransport",
    "TransportStats",
    "percentile",
    "recent_window",
]

#: Message kinds a transport carries between brokers.
MESSAGE_KINDS = ("subscription", "unsubscription", "event")

#: How many of the most recent items every per-operation log keeps: the
#: network's delivery log, the transport's latency and hop windows and each
#: broker's decision log.  Their counters still count every item.
RETENTION = 2 ** 16


def recent_window() -> Deque:
    """An empty deque that keeps the most recent :data:`RETENTION` items."""
    return deque(maxlen=RETENTION)


def _rank_in(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sequence."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    return _rank_in(sorted(values), q)


def _percentiles(values: Sequence[float], qs: Sequence[float]) -> Dict[str, float]:
    """Several nearest-rank percentiles of ``values``, sorting it only once."""
    ordered = sorted(values)
    return {f"p{q:g}": _rank_in(ordered, q) if ordered else 0.0 for q in qs}


@dataclass
class Message:
    """One inter-broker message in flight.

    ``sent_at`` is the simulated time the sender handed the message to the
    transport; arrival time minus ``sent_at`` is the message's per-hop latency
    (propagation delay plus any inbox queueing — zero under the synchronous
    transport, where time never advances).
    """

    kind: str
    sender: Hashable
    receiver: Hashable
    payload: object
    hops: int = 1
    sent_at: float = 0.0


@dataclass
class TransportStats:
    """Counters and distributions collected by a transport.

    ``delivery_latencies`` holds end-to-end publish→subscriber latencies (one
    entry per local delivery, recorded by the network); ``hop_counts`` holds
    the overlay hop distance of every *event message* at the moment it is
    handed to the receiving broker.  These two and ``hop_latencies`` are
    windows of the most recent :data:`RETENTION` samples, and the
    percentiles and histograms built from them describe that window;
    ``deliveries`` counts every delivery ever recorded.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    backpressure_retries: int = 0
    max_queue_depth: int = 0
    queue_depth_high_water: Dict[Hashable, int] = field(default_factory=dict)
    backpressure_per_broker: Dict[Hashable, int] = field(default_factory=dict)
    delivery_latencies: Deque[float] = field(default_factory=recent_window)
    hop_counts: Deque[int] = field(default_factory=recent_window)
    #: Per-hop latency (send→arrival, including queue wait) of event messages.
    hop_latencies: Deque[float] = field(default_factory=recent_window)
    deliveries: int = field(default=0, init=False)

    def latency_percentiles(self, qs: Sequence[float] = (50, 90, 99)) -> Dict[str, float]:
        """Return ``{"p50": ..., ...}`` over the recorded delivery latencies."""
        return _percentiles(self.delivery_latencies, qs)

    def hop_percentiles(self, qs: Sequence[float] = (50, 90, 99)) -> Dict[str, float]:
        """Return ``{"p50": ..., ...}`` over the recorded event-message hop counts."""
        return _percentiles(self.hop_counts, qs)

    def as_dict(self) -> Dict[str, Union[int, float]]:
        """Flatten counters and distribution summaries for reporting.

        Counter and count-like entries stay ``int``; percentiles and maxima
        over latency distributions are ``float``.
        """
        row: Dict[str, Union[int, float]] = {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "backpressure_retries": self.backpressure_retries,
            "max_queue_depth": self.max_queue_depth,
            "deliveries": self.deliveries,
        }
        for name, value in self.latency_percentiles().items():
            row[f"latency_{name}"] = value
        row["latency_max"] = max(self.delivery_latencies, default=0.0)
        row["hops_max"] = max(self.hop_counts, default=0)
        for name, value in self.hop_percentiles().items():
            row[f"hops_{name}"] = value
        for name, value in _percentiles(self.hop_latencies, (50, 90, 99)).items():
            row[f"hop_latency_{name}"] = value
        row["hop_latency_max"] = max(self.hop_latencies, default=0.0)
        return row


class Transport:
    """Base class: broker liveness, hop bookkeeping and the delivery seam.

    A transport is bound to exactly one network via :meth:`bind`; the network
    calls :meth:`send` for every inter-broker message and the transport calls
    back ``network._dispatch(kind, sender, receiver, payload)`` when (in
    simulated time) the message reaches the receiving broker.
    """

    def __init__(self) -> None:
        self.network = None  # set by bind()
        self.stats = TransportStats()
        self._down: set = set()
        # Per event id: overlay hop distance of each broker that has seen it.
        self._event_depth: Dict[Hashable, Dict[Hashable, int]] = {}

    # --------------------------------------------------------------- lifecycle
    def bind(self, network) -> None:
        """Attach to a broker network (called by ``BrokerNetwork.__post_init__``)."""
        if self.network is not None and self.network is not network:
            raise RuntimeError("transport is already bound to another network")
        self.network = network

    @property
    def now(self) -> float:
        """Current simulated time (always 0.0 for the synchronous transport)."""
        return 0.0

    # ---------------------------------------------------------------- liveness
    def is_up(self, broker_id: Hashable) -> bool:
        return broker_id not in self._down

    def mark_down(self, broker_id: Hashable) -> None:
        """Take a broker off the network: messages addressed to it are dropped."""
        self._down.add(broker_id)

    def mark_up(self, broker_id: Hashable) -> None:
        """Bring a broker back; the network re-propagates routing state around it."""
        self._down.discard(broker_id)

    # ---------------------------------------------------------------- messaging
    def send(self, kind: str, sender: Hashable, receiver: Hashable, payload: object) -> None:
        raise NotImplementedError

    def flush(self) -> int:
        """Deliver everything in flight; return the number of kernel steps run."""
        self._event_depth.clear()
        return 0

    def record_delivery_latency(self, latency: float) -> None:
        """Record one end-to-end publish→subscriber latency (called by the network)."""
        stats = self.stats
        stats.deliveries += 1
        stats.delivery_latencies.append(latency)

    # ------------------------------------------------------------ hop tracking
    def _hops_for(self, kind: str, payload: object, sender: Hashable, receiver: Hashable) -> int:
        """Hop distance of this message from its publisher (event messages only)."""
        if kind != "event":
            return 1
        event_id = getattr(payload, "event_id", None)
        if event_id is None:
            # Payloads without an event id must not share one depth table —
            # distinct events would inherit each other's hop depths.  Key by
            # object identity instead: stable for the payload's lifetime, and
            # the table is cleared on every flush so a recycled id cannot
            # resurrect a stale entry once the old payload is gone.
            event_id = ("anon", id(payload))
        depths = self._event_depth.setdefault(event_id, {})
        hops = depths.get(sender, 0) + 1
        # Reverse-path forwarding on an acyclic overlay delivers each event to
        # a broker at most once per stabilised epoch; keep the first depth.
        depths.setdefault(receiver, hops)
        return hops

    def _record_arrival(self, message: Message) -> None:
        self.stats.messages_delivered += 1
        latency = self.now - message.sent_at
        if message.kind == "event":
            self.stats.hop_counts.append(message.hops)
            self.stats.hop_latencies.append(latency)
        observe = getattr(self.network, "_observe_arrival", None)
        if observe is not None:
            observe(message, latency)


class SyncTransport(Transport):
    """Immediate inline delivery — the zero-latency, failure-free baseline."""

    def send(self, kind: str, sender: Hashable, receiver: Hashable, payload: object) -> None:
        self.stats.messages_sent += 1
        if not self.is_up(receiver):
            self.stats.messages_dropped += 1
            return
        message = Message(kind, sender, receiver, payload,
                          hops=self._hops_for(kind, payload, sender, receiver))
        self._record_arrival(message)
        self.network._dispatch(kind, sender, receiver, payload)


class SimTransport(Transport):
    """Discrete-event simulated delivery with latency, bounded queues and churn.

    Parameters
    ----------
    latency:
        Per-link delay model (default: :class:`FixedLatency` of 1.0).
    inbox_capacity:
        Bound on each broker's inbox.  An arrival finding the inbox full backs
        off for ``backpressure_delay`` and retries (counted, never dropped).
    service_time:
        Simulated time a broker spends handling one message; this is what
        makes queues build up under bursts.
    backpressure_delay:
        Retry delay for arrivals rejected by a full inbox (default:
        ``4 * service_time`` or 0.05, whichever is larger).
    seed:
        Seeds both the latency RNG and the kernel's tie-breaking RNG, making
        two identically seeded runs byte-identical.
    """

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        *,
        inbox_capacity: int = 64,
        service_time: float = 0.01,
        backpressure_delay: Optional[float] = None,
        seed: Optional[int] = 0,
        kernel: Optional[EventKernel] = None,
    ) -> None:
        super().__init__()
        if inbox_capacity <= 0:
            raise ValueError(f"inbox_capacity must be positive, got {inbox_capacity}")
        if service_time < 0:
            raise ValueError(f"service_time must be non-negative, got {service_time}")
        self.latency = latency if latency is not None else FixedLatency(1.0)
        self.inbox_capacity = inbox_capacity
        self.service_time = service_time
        self.backpressure_delay = (
            backpressure_delay
            if backpressure_delay is not None
            else max(4 * service_time, 0.05)
        )
        self.kernel = kernel if kernel is not None else EventKernel(seed=seed)
        self._rng = random.Random(seed)
        self._inboxes: Dict[Hashable, Deque[Message]] = {}
        self._draining: set = set()
        # Crash fencing.  A crash invalidates every callback scheduled on the
        # broker's behalf before it: the per-broker drain generation fences
        # stale ``_process`` callbacks (without it, a drain loop surviving a
        # crash/recover cycle runs *alongside* the post-recovery loop and the
        # broker serves at twice its service rate), and the per-link retry
        # generation fences stale ``_retry_link`` callbacks the same way.
        self._drain_generation: Dict[Hashable, int] = {}
        self._retry_generation: Dict[Tuple[Hashable, Hashable], int] = {}
        # Per-link FIFO state.  Overlay links are ordered channels (the broker
        # protocol relies on a subscription and its later withdrawal arriving
        # in order), so arrival times are strictly increasing per link and a
        # message rejected by a full inbox holds back its link's successors
        # instead of being overtaken.
        self._link_clock: Dict[Tuple[Hashable, Hashable], float] = {}
        self._link_blocked: Dict[Tuple[Hashable, Hashable], Deque[Message]] = {}

    @property
    def now(self) -> float:
        return self.kernel.now

    # ---------------------------------------------------------------- messaging
    def send(self, kind: str, sender: Hashable, receiver: Hashable, payload: object) -> None:
        self.stats.messages_sent += 1
        message = Message(
            kind,
            sender,
            receiver,
            payload,
            hops=self._hops_for(kind, payload, sender, receiver),
            sent_at=self.kernel.now,
        )
        delay = self.latency.sample(sender, receiver, self._rng)
        link = (sender, receiver)
        arrival = self.kernel.now + delay
        floor = self._link_clock.get(link)
        if floor is not None and arrival <= floor:
            arrival = math.nextafter(floor, math.inf)
        self._link_clock[link] = arrival
        self.kernel.schedule_at(arrival, lambda: self._arrive(message))

    def _arrive(self, message: Message) -> None:
        if not self.is_up(message.receiver):
            self.stats.messages_dropped += 1
            return
        link = (message.sender, message.receiver)
        blocked = self._link_blocked.get(link)
        if blocked:
            # An earlier message on this link is waiting for inbox space; queue
            # behind it so the link stays FIFO.
            blocked.append(message)
            return
        if not self._try_enqueue(message):
            self._link_blocked[link] = deque([message])
            self._count_backpressure(message.receiver)
            self._schedule_retry(link)

    def _schedule_retry(self, link: Tuple[Hashable, Hashable]) -> None:
        generation = self._retry_generation.get(link, 0)
        self.kernel.schedule(
            self.backpressure_delay, lambda: self._retry_link(link, generation)
        )

    def _retry_link(self, link: Tuple[Hashable, Hashable], generation: int) -> None:
        if generation != self._retry_generation.get(link, 0):
            # Scheduled before a crash purged this link's blocked queue; a
            # fresh post-recovery queue (if any) has its own retry chain.
            return
        blocked = self._link_blocked.get(link)
        if not blocked:
            self._link_blocked.pop(link, None)
            return
        receiver = link[1]
        if not self.is_up(receiver):
            self.stats.messages_dropped += len(blocked)
            self._link_blocked.pop(link, None)
            return
        while blocked:
            if not self._try_enqueue(blocked[0]):
                self._count_backpressure(receiver)
                self._schedule_retry(link)
                return
            blocked.popleft()
        self._link_blocked.pop(link, None)

    def _count_backpressure(self, receiver: Hashable) -> None:
        self.stats.backpressure_retries += 1
        per_broker = self.stats.backpressure_per_broker
        per_broker[receiver] = per_broker.get(receiver, 0) + 1

    def _try_enqueue(self, message: Message) -> bool:
        """Admit a message to the receiver's inbox; False when it is full."""
        inbox = self._inboxes.setdefault(message.receiver, deque())
        if len(inbox) >= self.inbox_capacity:
            return False
        inbox.append(message)
        depth = len(inbox)
        high_water = self.stats.queue_depth_high_water
        if depth > high_water.get(message.receiver, 0):
            high_water[message.receiver] = depth
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth
        if message.receiver not in self._draining:
            self._draining.add(message.receiver)
            self._schedule_process(message.receiver)
        return True

    def _schedule_process(self, broker_id: Hashable) -> None:
        generation = self._drain_generation.get(broker_id, 0)
        self.kernel.schedule(self.service_time, lambda: self._process(broker_id, generation))

    def _process(self, broker_id: Hashable, generation: int) -> None:
        if generation != self._drain_generation.get(broker_id, 0):
            # Scheduled before a crash: the post-recovery drain loop (if any)
            # owns the inbox now; a stale loop running alongside it would
            # serve the broker at a multiple of its service rate.
            return
        inbox = self._inboxes.get(broker_id)
        if not inbox or not self.is_up(broker_id):
            self._draining.discard(broker_id)
            return
        message = inbox.popleft()
        self._record_arrival(message)
        self.network._dispatch(message.kind, message.sender, message.receiver, message.payload)
        if inbox:
            self._schedule_process(broker_id)
        else:
            self._draining.discard(broker_id)

    def flush(self) -> int:
        """Run the kernel until no message is in flight anywhere."""
        steps = self.kernel.run()
        self._event_depth.clear()
        return steps

    # ---------------------------------------------------------------- liveness
    def mark_down(self, broker_id: Hashable) -> None:
        """Crash a broker: its queued inbox is lost along with future arrivals.

        Every per-broker and per-incoming-link structure is purged, so a
        broker that never recovers leaves nothing behind (bounded state under
        churn), and the drain/retry generations are bumped so callbacks
        scheduled before the crash cannot act after it.  Purging the link
        clocks means the FIFO guarantee does not span a crash: an incoming
        link's channel is reset exactly like a dropped TCP connection.
        """
        super().mark_down(broker_id)
        inbox = self._inboxes.pop(broker_id, None)
        if inbox:
            self.stats.messages_dropped += len(inbox)
        for link in list(self._link_blocked):
            if link[1] == broker_id:
                self.stats.messages_dropped += len(self._link_blocked[link])
                del self._link_blocked[link]
                self._retry_generation[link] = self._retry_generation.get(link, 0) + 1
        for link in list(self._link_clock):
            if link[1] == broker_id:
                del self._link_clock[link]
        self._draining.discard(broker_id)
        self._drain_generation[broker_id] = self._drain_generation.get(broker_id, 0) + 1
