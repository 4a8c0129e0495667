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

A message carries its own hop count.  :meth:`Transport._deliver` (and
:meth:`SyncTransport.send`, where a send is its arrival) makes it the hop
context while the receiving broker handles the message, so an event
forwarded then is one hop further; a publish's first hop and every
subscription or unsubscription message count 1.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Hashable, Optional, Sequence, Tuple, Union

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
#: network's delivery log and the transport's latency and hop windows.  Their
#: counters still count every item.
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


@dataclass(slots=True)
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
    """Base class: broker liveness, hop counting and the delivery seam.

    A transport is bound to exactly one network via :meth:`bind`; the network
    calls :meth:`send` for every inter-broker message and the transport hands
    the message to :meth:`_deliver` when (in simulated time) it reaches the
    receiving broker.
    """

    def __init__(self) -> None:
        self.network = None  # set by bind()
        self.stats = TransportStats()
        self._down: set = set()
        # Hop count of the message being delivered; 0 outside any delivery.
        self._hops = 0
        # The network's observer of event arrivals (hop spans), set by bind()
        # only while the network traces: untraced arrivals make no call.
        self._observe_arrival: Optional[
            Callable[[Hashable, Hashable, object, int, float, float], None]
        ] = None

    # --------------------------------------------------------------- lifecycle
    def bind(self, network) -> None:
        """Attach to a broker network (called by ``BrokerNetwork.__post_init__``).

        The network's ``_observe_arrival`` is held only if its trace log is
        enabled at this point.
        """
        if self.network is not None and self.network is not network:
            raise RuntimeError("transport is already bound to another network")
        self.network = network
        self._observe_arrival = network._observe_arrival if network.tracing.enabled else None

    #: Current simulated time: frozen at 0.0 on the synchronous transport, a
    #: plain class attribute so reading it costs no call; the simulated and
    #: networked transports override it with a property.
    now: float = 0.0

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
        return 0

    # ---------------------------------------------------------------- delivery
    def _next_hops(self, kind: str) -> int:
        """Hop count of a message sent now: one past the delivery being handled, for events."""
        return self._hops + 1 if kind == "event" else 1

    def _deliver(
        self,
        kind: str,
        sender: Hashable,
        receiver: Hashable,
        payload: object,
        hops: int,
        sent_at: float,
    ) -> None:
        """Record a message's arrival, then hand it to its broker.

        Takes the message's fields.  While the broker handles it, ``hops``
        is the hop context the broker's own sends count from; the outer
        context comes back after, because synchronous delivery nests.
        """
        stats = self.stats
        stats.messages_delivered += 1
        if kind == "event":
            latency = self.now - sent_at
            stats.hop_counts.append(hops)
            stats.hop_latencies.append(latency)
            observe = self._observe_arrival
            if observe is not None:
                observe(sender, receiver, payload, hops, sent_at, latency)
        outer = self._hops
        self._hops = hops
        try:
            self.network._dispatch(kind, sender, receiver, payload)
        finally:
            self._hops = outer


class SyncTransport(Transport):
    """Immediate inline delivery — the zero-latency, failure-free baseline.

    A send is its own arrival: :meth:`Transport._deliver`'s bookkeeping at
    hop latency 0.0, then the network's dispatch, with no message object.
    """

    def send(self, kind: str, sender: Hashable, receiver: Hashable, payload: object) -> None:
        stats = self.stats
        stats.messages_sent += 1
        if receiver in self._down:
            stats.messages_dropped += 1
            return
        stats.messages_delivered += 1
        if kind == "event":
            hops = self._hops + 1
            stats.hop_counts.append(hops)
            stats.hop_latencies.append(0.0)
            observe = self._observe_arrival
            if observe is not None:
                observe(sender, receiver, payload, hops, 0.0, 0.0)
        else:
            hops = 1
        outer = self._hops
        self._hops = hops
        try:
            self.network._dispatch(kind, sender, receiver, payload)
        finally:
            self._hops = outer


class SimTransport(Transport):
    """Discrete-event simulated delivery with latency, bounded queues and churn.

    Parameters
    ----------
    latency:
        Per-link delay model (default: :class:`FixedLatency` of 1.0).
    inbox_capacity:
        Bound on each broker's inbox.  An arrival finding the inbox full backs
        off for :attr:`retry_delay` and retries (counted, never dropped).
    service_time:
        Simulated time a broker spends handling one message; this is what
        makes queues build up under bursts.  It also prices the back-off:
        :attr:`retry_delay` is ``4 * service_time`` or 0.05, whichever is
        larger, so it is always positive and a retry always waits for
        simulated time to pass.
    seed:
        Seeds both the latency RNG and the kernel's tie-breaking RNG, making
        two identically seeded runs byte-identical.

    An arrival is delivered when its broker serves it, so an event's hop
    count is one past that of the message whose handling forwarded it.
    """

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        *,
        inbox_capacity: int = 64,
        service_time: float = 0.01,
        seed: Optional[int] = 0,
    ) -> None:
        super().__init__()
        if inbox_capacity <= 0:
            raise ValueError(f"inbox_capacity must be positive, got {inbox_capacity}")
        if service_time < 0:
            raise ValueError(f"service_time must be non-negative, got {service_time}")
        self.latency = latency if latency is not None else FixedLatency(1.0)
        self.inbox_capacity = inbox_capacity
        self.service_time = service_time
        self.retry_delay = max(4 * service_time, 0.05)
        self.kernel = EventKernel(seed=seed)
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
            hops=self._next_hops(kind),
            sent_at=self.kernel.now,
        )
        delay = self.latency.sample(sender, receiver, self._rng)
        link = (sender, receiver)
        arrival = self.kernel.now + delay
        floor = self._link_clock.get(link)
        if floor is not None and arrival <= floor:
            arrival = math.nextafter(floor, math.inf)
        self._link_clock[link] = arrival
        self.kernel.schedule_at(arrival, self._arrive, message)

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
            self.stats.backpressure_retries += 1
            self._schedule_retry(link)

    def _schedule_retry(self, link: Tuple[Hashable, Hashable]) -> None:
        generation = self._retry_generation.get(link, 0)
        self.kernel.schedule(self.retry_delay, self._retry_link, link, generation)

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
                self.stats.backpressure_retries += 1
                self._schedule_retry(link)
                return
            blocked.popleft()
        self._link_blocked.pop(link, None)

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
        self.kernel.schedule(self.service_time, self._process, broker_id, generation)

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
        self._deliver(
            message.kind,
            message.sender,
            message.receiver,
            message.payload,
            message.hops,
            message.sent_at,
        )
        if inbox:
            self._schedule_process(broker_id)
        else:
            self._draining.discard(broker_id)

    def flush(self) -> int:
        """Run the kernel until no message is in flight anywhere."""
        return self.kernel.run()

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
