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

A simulated message is two kernel steps: ``_arrive`` puts it in its
broker's inbox (or behind its link's blocked queue), and ``_process`` hands
it to the broker one service time after the inbox's drain loop reaches it.
Both are pushed straight onto the kernel's heap with the entry
:meth:`EventKernel.schedule_at` would push, so seeded schedules repeat bit
for bit.  In flight a message is a plain tuple (:class:`Message` is the TCP
transport's).  One record per broker inbox and one per directed link hold
what the transport knows, so a message costs it one dict lookup where it
used to cost about eight; a crash retires the broker's inbox record, which
fences every step scheduled for it before the crash.  With a null dispatch
a message costs 1.9–2.4 µs in the transport and kernel, against 3.5–4.7 µs
before (same process, 12 brokers, shared 2-core x86_64 host; README,
"Simulation subsystem").

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
from heapq import heappush
from typing import Callable, Deque, Dict, Hashable, Optional, Sequence, Sized, Tuple, Union

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
    :attr:`deliveries` counts every delivery ever recorded.
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
    #: The bound network's delivery log (empty until :meth:`Transport.bind`).
    delivery_log: Sized = field(default=(), init=False, repr=False, compare=False)

    @property
    def deliveries(self) -> int:
        """Every delivery ever recorded: the length of the network's delivery log."""
        return len(self.delivery_log)

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
        enabled at this point; :attr:`TransportStats.deliveries` reads the
        network's delivery log from now on.
        """
        if self.network is not None and self.network is not network:
            raise RuntimeError("transport is already bound to another network")
        self.network = network
        self.stats.delivery_log = network.deliveries
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


class _Inbox:
    """One broker's inbox: its queue, draining flag and queue-depth high water.

    ``draining`` is set while a ``_process`` step for it is on the heap;
    ``high`` mirrors the broker's ``TransportStats.queue_depth_high_water``.
    A crash sets ``retired``: the steps scheduled for the record before it,
    and the link records pointing at it, are dead from then on.  ``step`` is
    the ``(record,)`` argument tuple of its ``_process`` steps.
    """

    __slots__ = ("broker_id", "queue", "draining", "high", "retired", "step")

    def __init__(self, broker_id: Hashable, high: int) -> None:
        self.broker_id = broker_id
        self.queue: Deque[tuple] = deque()
        self.draining = False
        self.high = high
        self.retired = False
        self.step = (self,)


class _Link:
    """One directed overlay link: its FIFO clock, blocked queue and receiver's inbox.

    ``clock`` is the latest arrival scheduled on the link; ``blocked`` is
    ``None`` or the messages held behind one a full inbox rejected.  A
    retired ``inbox`` fences the link's pending retry.
    """

    __slots__ = ("clock", "blocked", "inbox")

    def __init__(self, inbox: _Inbox) -> None:
        self.clock = -math.inf
        self.blocked: Optional[Deque[tuple]] = None
        self.inbox = inbox


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

    In flight a message is the tuple ``(kind, sender, receiver, payload,
    hops, sent_at, link)``: see the module docstring for its two steps.
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
        self._inboxes: Dict[Hashable, _Inbox] = {}
        # Overlay links are ordered channels (the broker protocol relies on a
        # subscription and its later withdrawal arriving in order), so
        # arrival times are strictly increasing per link and a message
        # rejected by a full inbox holds back its link's successors instead
        # of being overtaken.
        self._links: Dict[Tuple[Hashable, Hashable], _Link] = {}
        # Looked up once: the kernel's heap and draw, the two step actions.
        self._heap = self.kernel._heap
        self._tie = self.kernel._rng.random
        self._arrive_step = self._arrive
        self._process_step = self._process

    @property
    def now(self) -> float:
        return self.kernel.now

    # ---------------------------------------------------------------- messaging
    def send(self, kind: str, sender: Hashable, receiver: Hashable, payload: object) -> None:
        self.stats.messages_sent += 1
        kernel = self.kernel
        now = kernel.now
        link = self._links.get((sender, receiver)) or self._open_link(sender, receiver)
        arrival = now + self.latency.sample(sender, receiver, self._rng)
        if arrival <= link.clock:
            arrival = math.nextafter(link.clock, math.inf)
        if arrival < now:
            raise ValueError(f"cannot schedule at t={arrival} in the past (now={now})")
        link.clock = arrival
        message = (
            kind,
            sender,
            receiver,
            payload,
            self._hops + 1 if kind == "event" else 1,
            now,
            link,
        )
        kernel._seq = seq = kernel._seq + 1
        heappush(self._heap, (arrival, self._tie(), seq, self._arrive_step, (message,)))

    def _open_link(self, sender: Hashable, receiver: Hashable) -> _Link:
        """The record of a link with nothing sent on it yet (or since its receiver's crash)."""
        inbox = self._inboxes.get(receiver)
        if inbox is None:
            high = self.stats.queue_depth_high_water.get(receiver, 0)
            inbox = self._inboxes[receiver] = _Inbox(receiver, high)
        link = self._links[(sender, receiver)] = _Link(inbox)
        return link

    def _arrive(self, message: tuple) -> None:
        if message[2] in self._down:
            self.stats.messages_dropped += 1
            return
        link = message[6]
        if link.inbox.retired:
            # Sent before the receiver's crash, arriving after its recovery:
            # the link's channel is the one opened since.
            link = self._links.get(message[1:3]) or self._open_link(message[1], message[2])
        if link.blocked:
            # An earlier message on this link is waiting for inbox space; queue
            # behind it so the link stays FIFO.
            link.blocked.append(message)
        elif not self._admit(link.inbox, message):
            link.blocked = deque((message,))
            self.stats.backpressure_retries += 1
            self.kernel.schedule(self.retry_delay, self._retry_link, link)

    def _retry_link(self, link: _Link) -> None:
        inbox = link.inbox
        if inbox.retired:
            # Scheduled before the receiver's crash dropped this blocked
            # queue; a post-recovery queue has its own retry chain.
            return
        blocked = link.blocked
        while blocked:
            if not self._admit(inbox, blocked[0]):
                self.stats.backpressure_retries += 1
                self.kernel.schedule(self.retry_delay, self._retry_link, link)
                return
            blocked.popleft()
        link.blocked = None

    def _admit(self, inbox: _Inbox, message: tuple) -> bool:
        """Append a message to an inbox and start its drain loop; False when it is full."""
        queue = inbox.queue
        if len(queue) >= self.inbox_capacity:
            return False
        queue.append(message)
        depth = len(queue)
        if depth > inbox.high:
            inbox.high = depth
            stats = self.stats
            stats.queue_depth_high_water[inbox.broker_id] = depth
            if depth > stats.max_queue_depth:
                stats.max_queue_depth = depth
        if not inbox.draining:
            inbox.draining = True
            kernel = self.kernel
            kernel._seq = seq = kernel._seq + 1
            heappush(
                self._heap,
                (kernel.now + self.service_time, self._tie(), seq, self._process_step, inbox.step),
            )
        return True

    def _process(self, inbox: _Inbox) -> None:
        if inbox.retired:
            # Scheduled before a crash: the post-recovery drain loop (if any)
            # owns the broker's new inbox; a stale loop running alongside it
            # would serve the broker at a multiple of its service rate.
            return
        queue = inbox.queue
        kind, sender, receiver, payload, hops, sent_at, _link = queue.popleft()
        # Transport._deliver, inline.
        stats = self.stats
        stats.messages_delivered += 1
        kernel = self.kernel
        if kind == "event":
            latency = kernel.now - sent_at
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
        if queue:
            kernel._seq = seq = kernel._seq + 1
            heappush(
                self._heap,
                (kernel.now + self.service_time, self._tie(), seq, self._process_step, inbox.step),
            )
        else:
            inbox.draining = False

    def flush(self) -> int:
        """Run the kernel until no message is in flight anywhere."""
        return self.kernel.run()

    # ---------------------------------------------------------------- liveness
    def mark_down(self, broker_id: Hashable) -> None:
        """Crash a broker: its queued inbox is lost along with future arrivals.

        The broker's inbox record and every record of a link into it are
        retired and removed, so a broker that never recovers leaves nothing
        behind (bounded state under churn) and steps scheduled before the
        crash cannot act after it.  Dropping the link records means the FIFO
        guarantee does not span a crash: an incoming link's channel is reset
        exactly like a dropped TCP connection.
        """
        super().mark_down(broker_id)
        stats = self.stats
        inbox = self._inboxes.pop(broker_id, None)
        if inbox is not None:
            inbox.retired = True
            stats.messages_dropped += len(inbox.queue)
            inbox.queue.clear()
        for key in [key for key in self._links if key[1] == broker_id]:
            blocked = self._links.pop(key).blocked
            if blocked:
                stats.messages_dropped += len(blocked)
