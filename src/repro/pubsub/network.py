"""The broker overlay network: topology, propagation, event routing and auditing.

:class:`BrokerNetwork` wires :class:`Broker` instances into an acyclic overlay
(publish/subscribe systems such as Siena and REBECA use tree or per-source
tree topologies; an acyclic overlay means reverse-path forwarding needs no
duplicate suppression).  Every inter-broker subscription, unsubscription and
event message travels through a pluggable :class:`~repro.sim.transport.Transport`:
the default :class:`~repro.sim.transport.SyncTransport` delivers immediately
inline (the historical behaviour), while
:class:`~repro.sim.transport.SimTransport` runs messages through a
deterministic discrete-event kernel with per-link latency, bounded per-broker
inboxes and broker churn (crash / recover / join).

Beyond simulation the network audits correctness: for every published event it
computes the ground-truth set of subscribers whose subscriptions match and
compares it with the deliveries that actually happened, so experiments can
verify the safety claim: covering never loses events.
Under churn the ground truth is restricted to *surviving, reachable*
subscribers: clients homed at brokers that are up and connected to the
publishing broker through up brokers.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Container,
    Deque,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..index.config import IndexConfig
from ..obs.exposition import render_prometheus, snapshot
from ..obs.profiler import PROFILER
from ..obs.registry import HOP_BUCKETS, MetricsRegistry
from ..obs.trace import Span, TraceLog, make_detail
from ..sim.transport import SyncTransport, Transport, recent_window
from .broker import LOCAL_INTERFACE, Broker
from .routing_table import check_covering_kind
from .schema import AttributeSchema
from .subscription import Event, Subscription
from .subscription_store import ProfileCache

__all__ = [
    "BrokerNetwork",
    "DeliveryLog",
    "DeliveryRecord",
    "tree_topology",
    "chain_topology",
    "star_topology",
]


def _require_positive_brokers(num_brokers: int) -> None:
    if num_brokers <= 0:
        raise ValueError(f"num_brokers must be positive, got {num_brokers}")


def tree_topology(num_brokers: int) -> List[Tuple[int, int]]:
    """Return the edge list of a balanced binary tree with ``num_brokers`` nodes."""
    _require_positive_brokers(num_brokers)
    return [((child - 1) // 2, child) for child in range(1, num_brokers)]


def chain_topology(num_brokers: int) -> List[Tuple[int, int]]:
    """Return the edge list of a linear chain of brokers."""
    _require_positive_brokers(num_brokers)
    return [(i, i + 1) for i in range(num_brokers - 1)]


def star_topology(num_brokers: int) -> List[Tuple[int, int]]:
    """Return the edge list of a star: broker 0 in the centre."""
    _require_positive_brokers(num_brokers)
    return [(0, i) for i in range(1, num_brokers)]


class DeliveryRecord(NamedTuple):
    """One delivery of an event to a local subscriber.

    ``time`` is the simulated delivery time (always 0.0 under the synchronous
    transport).  A plain named tuple, built when a :class:`DeliveryLog` is
    read; it carries no instance dict.
    """

    client_id: Hashable
    subscription_id: Hashable
    event_id: Hashable
    time: float = 0.0


class DeliveryLog:
    """Every delivery a network made, of which the most recent are kept.

    ``len`` counts every delivery ever recorded; the log retains the last
    :data:`~repro.sim.transport.RETENTION` of them, and iteration yields them
    as :class:`DeliveryRecord` tuples, oldest first.  Who one publish reached,
    however many records are retained, comes from
    :meth:`BrokerNetwork.collect_recipients`.

    The log is four columns (client, subscription id, event id, time), each
    a window of the same length, filled one broker visit at a time by
    :meth:`extend`; a record is built only when the log is read.
    """

    __slots__ = ("_clients", "_sub_ids", "_event_ids", "_times", "_total")

    def __init__(self) -> None:
        self._clients: Deque[Hashable] = recent_window()
        self._sub_ids: Deque[Hashable] = recent_window()
        self._event_ids: Deque[Hashable] = recent_window()
        self._times: Deque[float] = recent_window()
        self._total = 0

    def extend(
        self,
        clients: Sequence[Hashable],
        sub_ids: Sequence[Hashable],
        event_id: Hashable,
        time: float,
    ) -> None:
        """Record one visit: ``clients[i]`` got ``event_id`` through ``sub_ids[i]`` at ``time``."""
        count = len(clients)
        self._total += count
        self._clients.extend(clients)
        self._sub_ids.extend(sub_ids)
        self._event_ids.extend((event_id,) * count)
        self._times.extend((time,) * count)

    def __len__(self) -> int:
        return self._total

    def __iter__(self) -> Iterator[DeliveryRecord]:
        return map(DeliveryRecord, self._clients, self._sub_ids, self._event_ids, self._times)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeliveryLog):
            return NotImplemented
        return self._total == other._total and self._columns() == other._columns()

    def _columns(self) -> Tuple[Deque, ...]:
        return (self._clients, self._sub_ids, self._event_ids, self._times)

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"DeliveryLog(total={self._total}, retained={list(self)!r})"


@dataclass
class BrokerNetwork:
    """A simulated network of content-based publish/subscribe brokers.

    Parameters
    ----------
    schema:
        Shared message schema.
    covering:
        Covering kind used by every broker
        (:data:`~repro.pubsub.routing_table.COVERING_KINDS`): ``"none"`` or
        ``"approximate"``.
    seed:
        Seed of the default trace log, built when ``tracing`` is not given.
    transport:
        Message transport between brokers; defaults to a fresh
        :class:`~repro.sim.transport.SyncTransport` (immediate inline
        delivery).  Pass a :class:`~repro.sim.transport.SimTransport` for
        latency, queueing and churn.
    config:
        The one :class:`~repro.index.config.IndexConfig` every broker is
        built with (defaults to ``IndexConfig()``): the match indexes'
        precision grid.  The network hands one
        :class:`~repro.pubsub.subscription_store.ProfileCache` to every
        broker, so each subscription's match-index key runs are computed
        once network-wide.
    metrics:
        The :class:`~repro.obs.registry.MetricsRegistry` the network's
        counters are serialised into (defaults to a fresh one, so every
        network can be scraped).  Every counter lives in one place: each
        broker's ``stats`` and routing table, this network's audit
        tallies and delivery log, ``profile_cache`` and ``transport.stats``
        (the message counts by kind are read off the brokers' and the
        transport's).  :meth:`scrape` / :meth:`metrics_snapshot`
        (through :meth:`publish_metrics`) copy them into the registry at
        scrape time; the hot paths only increment plain attributes, so the
        registry costs nothing per event.
    tracing:
        Optional :class:`~repro.obs.trace.TraceLog`.  When enabled, every
        published event gets a deterministic trace id (derived from the
        network seed and the event id) and the network records a ``publish``
        root span plus one ``hop`` span per transport arrival; brokers add
        ``route`` and ``covering`` decision spans.  Defaults to a disabled
        log (brokers then skip instrumentation entirely).

    Attributes
    ----------
    deliveries:
        The :class:`DeliveryLog` of every local delivery: ``len`` counts all
        of them, and iteration yields the most recent
        :data:`~repro.sim.transport.RETENTION` records, oldest first (only
        those are retained, so a long run holds bounded memory).  :meth:`publish`,
        :meth:`publish_batch` and the scenario runner read their results
        through :meth:`collect_recipients`, never from the log.
    """

    schema: AttributeSchema
    covering: str = "approximate"
    seed: Optional[int] = None
    transport: Optional[Transport] = None
    metrics: Optional[MetricsRegistry] = None
    tracing: Optional[TraceLog] = None
    config: Optional[IndexConfig] = None
    brokers: Dict[Hashable, Broker] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.config is None:
            self.config = IndexConfig()
        check_covering_kind(self.covering)
        # One match-run cache for every broker.
        self.profile_cache = ProfileCache()
        if self.metrics is None:
            self.metrics = MetricsRegistry()
        if self.tracing is None:
            self.tracing = TraceLog(enabled=False, seed=self.seed)
        self.deliveries = DeliveryLog()
        # After the trace log and the delivery log: the transport observes
        # arrivals only if tracing is enabled, and counts deliveries by the log.
        if self.transport is None:
            self.transport = SyncTransport()
        self.transport.bind(self)
        # Span timestamps are simulated time, not wall clock — deterministic
        # under a seeded SimTransport, frozen at 0.0 under SyncTransport.
        self.tracing.bind_clock(lambda: self.transport.now)
        # The overlay: broker -> its neighbours.
        self.graph: Dict[Hashable, Set[Hashable]] = {}
        # Running delivery-audit tallies, accumulated by publish_and_audit so
        # scrapes report real delivery counts without a replay.
        self.audited_delivered = 0
        self.audited_missed = 0
        self.audited_duplicates = 0
        # Event id -> the clients it has reached, for the ids a caller is
        # collecting (see collect_recipients).
        self._collecting: Dict[Hashable, Set[Hashable]] = {}
        # Every live subscription id -> (client, home broker, subscription):
        # an id names one client's one rectangle network-wide (see _admit).
        # Withdrawals and the audit's ground truth read it, never the
        # brokers' own maps.
        self._live_ids: Dict[Hashable, Tuple[Hashable, Hashable, Subscription]] = {}
        self._publish_times: Dict[Hashable, float] = {}

    # ---------------------------------------------------------------- topology
    def add_broker(self, broker_id: Hashable) -> Broker:
        """Create and register a broker."""
        if broker_id in self.brokers:
            raise ValueError(f"broker {broker_id!r} already exists")
        broker = Broker(
            broker_id=broker_id,
            schema=self.schema,
            covering=self.covering,
            profile_cache=self.profile_cache,
            trace=self.tracing if self.tracing.enabled else None,
            config=self.config,
        )
        broker.attach_transport(self.transport, self._record_deliveries)
        self.brokers[broker_id] = broker
        self.graph[broker_id] = set()
        # Transports that maintain per-broker infrastructure (the networked
        # transport runs one TCP server per broker) hook broker creation; the
        # in-process transports simply don't define the attribute.
        notify = getattr(self.transport, "broker_added", None)
        if notify is not None:
            notify(broker_id)
        return broker

    def connect(self, a: Hashable, b: Hashable) -> None:
        """Connect two brokers with a bidirectional overlay link.

        The overlay must stay acyclic; adding a link that would close a cycle
        raises ``ValueError``.
        """
        if a not in self.brokers or b not in self.brokers:
            raise ValueError(f"both brokers must exist before connecting ({a!r}, {b!r})")
        if b in self.graph[a]:
            return
        # A broker with no link yet reaches no other: only then is the search
        # needed, and a tree grown leaf by leaf never pays for it.
        if a == b or (self.graph[a] and self.graph[b] and b in self._component(a, self.graph)):
            raise ValueError(
                f"connecting {a!r} and {b!r} would create a cycle; the overlay must be a tree"
            )
        self.graph[a].add(b)
        self.graph[b].add(a)
        self.brokers[a].connect(b)
        self.brokers[b].connect(a)

    @classmethod
    def from_topology(
        cls,
        schema: AttributeSchema,
        edges: Iterable[Tuple[Hashable, Hashable]],
        covering: str = "approximate",
        seed: Optional[int] = None,
        matching: str = "sfc",
        transport: Optional[Transport] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracing: Optional[TraceLog] = None,
        config: Optional[IndexConfig] = None,
        nodes: Optional[Iterable[Hashable]] = None,
    ) -> "BrokerNetwork":
        """Build a network from an edge list (nodes are created on first sight).

        ``nodes`` optionally pre-creates brokers before the edges are wired —
        needed for ids an edge list cannot express (a single-broker network
        has no edges at all).  An empty edge list with no explicit ``nodes``
        builds the canonical single-broker network (broker ``0``), matching
        what ``tree_topology(1)`` / ``chain_topology(1)`` / ``star_topology(1)``
        denote.

        ``matching`` is accepted for callers that pass ``"sfc"``; there is no
        other matcher (see :class:`~repro.pubsub.routing_table.InterfaceTable`).
        """
        if matching != "sfc":
            raise ValueError(f"unknown matching kind {matching!r}; only 'sfc' is accepted")
        network = cls(
            schema=schema,
            covering=covering,
            seed=seed,
            transport=transport,
            metrics=metrics,
            tracing=tracing,
            config=config,
        )
        for node in nodes or ():
            if node not in network.brokers:
                network.add_broker(node)
        for a, b in edges:
            if a not in network.brokers:
                network.add_broker(a)
            if b not in network.brokers:
                network.add_broker(b)
            network.connect(a, b)
        if not network.brokers:
            network.add_broker(0)
        return network

    # ---------------------------------------------------------------- transport
    @property
    def event_messages(self) -> int:
        """Event messages sent between brokers: every broker's ``events_forwarded``."""
        return sum([broker.stats.events_forwarded for broker in self.brokers.values()])

    @property
    def subscription_messages(self) -> int:
        """Subscription messages sent between brokers: forwarded and re-synced."""
        return sum(
            [
                broker.stats.subscriptions_forwarded + broker.stats.subscriptions_resynced
                for broker in self.brokers.values()
            ]
        )

    @property
    def unsubscription_messages(self) -> int:
        """Withdrawals sent between brokers: every message the transport was
        handed that is neither an event nor a subscription."""
        return (
            self.transport.stats.messages_sent
            - self.event_messages
            - self.subscription_messages
        )

    def _dispatch(self, kind: str, sender: Hashable, receiver: Hashable, payload: object) -> None:
        """Hand a message that has arrived (in simulated time) to its broker."""
        broker = self.brokers[receiver]
        if kind == "subscription":
            broker.receive_subscription(sender, payload)
        elif kind == "unsubscription":
            broker.receive_unsubscription(sender, payload)
        elif kind == "event":
            broker.receive_event(sender, payload)
        else:
            raise ValueError(f"unknown message kind {kind!r}")

    def _observe_arrival(
        self,
        sender: Hashable,
        receiver: Hashable,
        event: Event,
        hops: int,
        sent_at: float,
        latency: float,
    ) -> None:
        """Transport callback: one event message just reached its receiving broker.

        Records the message's ``hop`` span — ``start`` is the send time,
        ``duration`` the hop latency (propagation plus queue wait),
        ``parent``/``broker_id`` the overlay link it crossed.  A transport
        calls it only while :attr:`tracing` is enabled (see
        :meth:`~repro.sim.transport.Transport.bind`).
        """
        event_id = event.event_id
        self.tracing.record(
            Span(
                trace_id=self.tracing.trace_id_for("evt", event_id),
                kind="hop",
                name=str(event_id),
                broker_id=receiver,
                parent=sender,
                start=sent_at,
                duration=latency,
                hop=hops,
            )
        )

    def _record_deliveries(
        self, event: Event, clients: List[Hashable], sub_ids: List[Hashable]
    ) -> None:
        """Every broker's delivery callback: record one visit's deliveries at once."""
        transport = self.transport
        now = transport.now
        event_id = event.event_id
        count = len(clients)
        # The end-to-end publish→subscriber latency, into the transport's
        # stats: every delivery of one visit shares it.
        stats = transport.stats
        stats.delivery_latencies.extend((now - self._publish_times.get(event_id, now),) * count)
        self.deliveries.extend(clients, sub_ids, event_id, now)
        recipients = self._collecting.get(event_id)
        if recipients is not None:
            recipients.update(clients)

    @contextmanager
    def collect_recipients(self, event_ids: Iterable[Hashable]):
        """Collect, per event id, the clients delivered to while the block runs.

        Yields ``{event_id: set of client ids}``, filled in as deliveries
        land; what the block sees never depends on how many records
        :attr:`deliveries` retains.  A block nested in another that collects
        the same id gets a set of its own, merged into the outer one on
        exit, so each block sees exactly the deliveries made during it.
        """
        collecting = self._collecting
        mine = {event_id: set() for event_id in event_ids}
        outer = {event_id: collecting.get(event_id) for event_id in mine}
        collecting.update(mine)
        try:
            yield mine
        finally:
            for event_id, recipients in mine.items():
                self._stop_collecting(event_id, recipients, outer[event_id])

    def _stop_collecting(
        self, event_id: Hashable, recipients: Set[Hashable], outer: Optional[Set[Hashable]]
    ) -> None:
        """End one collection of ``event_id``, handing ``recipients`` to the enclosing one."""
        if outer is None:
            del self._collecting[event_id]
        else:
            outer |= recipients
            self._collecting[event_id] = outer

    # ------------------------------------------------------------------- churn
    def crash_broker(self, broker_id: Hashable) -> None:
        """Take a broker down: queued and future messages to it are dropped.

        Its locally attached subscribers are considered dead (excluded from
        the audit ground truth) until :meth:`recover_broker`.
        """
        if broker_id not in self.brokers:
            raise ValueError(f"unknown broker {broker_id!r}")
        if not self.transport.is_up(broker_id):
            raise ValueError(f"broker {broker_id!r} is already down")
        self.transport.mark_down(broker_id)

    def recover_broker(self, broker_id: Hashable) -> None:
        """Bring a crashed broker back and re-propagate routing state.

        The recovered broker lost every message sent while it was down, so its
        learnt routing/covering state cannot be trusted: recovery is
        flush-and-refill.  First the broker *retracts* everything it had
        forwarded pre-crash (an unsubscription dropped at the dead broker
        would otherwise leave ghost routing entries downstream forever), then
        its state is wiped and rebuilt: it re-announces its local
        subscriptions and each live neighbour replays the subscriptions it
        had forwarded on the link (only the *forwarded* set needs replay —
        subscriptions a neighbour suppressed are covered by something it did
        forward, so event routing stays complete: the covering optimisation
        extends to recovery).  Per-link FIFO delivery orders the retractions
        before the re-announcements, so the downstream state converges to
        exactly the live subscription set once the churn settles.
        """
        if broker_id not in self.brokers:
            raise ValueError(f"unknown broker {broker_id!r}")
        if self.transport.is_up(broker_id):
            raise ValueError(f"broker {broker_id!r} is not down")
        self.transport.mark_up(broker_id)
        broker = self.brokers[broker_id]
        for neighbor_id in broker.neighbors:
            if self.transport.is_up(neighbor_id):
                broker.flush_interface(neighbor_id)
        broker.reset_routing_state()
        for _client_id, subscription in broker.local_subscriptions():
            broker.receive_subscription(LOCAL_INTERFACE, subscription)
        for neighbor_id in broker.neighbors:
            if self.transport.is_up(neighbor_id):
                self.brokers[neighbor_id].resync_interface(broker_id)

    def join_broker(self, broker_id: Hashable, attach_to: Hashable) -> Broker:
        """Add a new broker mid-run, attached to an existing live broker.

        The attachment broker runs the covering-aware forwarding decision for
        every subscription it knows, so events published at (or routed via)
        the new broker reach existing subscribers.
        """
        if attach_to not in self.brokers:
            raise ValueError(f"unknown broker {attach_to!r}")
        if not self.transport.is_up(attach_to):
            raise ValueError(f"cannot attach to crashed broker {attach_to!r}")
        broker = self.add_broker(broker_id)
        self.connect(broker_id, attach_to)
        self.brokers[attach_to].announce_interface(broker_id)
        return broker

    def subscription_home(self, sub_id: Hashable) -> Optional[Hashable]:
        """The broker live subscription ``sub_id`` was registered at, or ``None``."""
        held = self._live_ids.get(sub_id)
        return None if held is None else held[1]

    def live_brokers(self) -> Set[Hashable]:
        """Brokers currently up."""
        return {broker_id for broker_id in self.brokers if self.transport.is_up(broker_id)}

    def reachable_brokers(self, origin: Hashable) -> Set[Hashable]:
        """Brokers reachable from ``origin`` through live brokers (incl. itself)."""
        if origin not in self.brokers:
            raise ValueError(f"unknown broker {origin!r}")
        if not self.transport.is_up(origin):
            return set()
        return self._component(origin, self.live_brokers())

    def live_components(self) -> List[Set[Hashable]]:
        """Connected components of the live overlay, deterministically ordered.

        A fully-up acyclic overlay has exactly one component; every crash of
        a cut vertex splits the survivors into independent partitions.  The
        components are sorted by their smallest member (string order) so two
        same-seed runs enumerate them identically.
        """
        live = self.live_brokers()
        components: List[Set[Hashable]] = []
        placed: Set[Hashable] = set()
        for broker_id in self.graph:
            if broker_id in live and broker_id not in placed:
                component = self._component(broker_id, live)
                placed |= component
                components.append(component)
        return sorted(components, key=lambda c: min(str(b) for b in c))

    def _component(self, origin: Hashable, allowed: Container[Hashable]) -> Set[Hashable]:
        """``origin`` and every broker it reaches through brokers in
        ``allowed``: one breadth-first search."""
        seen = {origin}
        frontier = [origin]
        for broker_id in frontier:
            for neighbour in self.graph[broker_id]:
                if neighbour not in seen and neighbour in allowed:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return seen

    # ------------------------------------------------------------------- usage
    def _require_up(self, broker_id: Hashable) -> None:
        """Raise ``ValueError`` unless ``broker_id`` exists and is up."""
        if broker_id not in self.brokers:
            raise ValueError(f"unknown broker {broker_id!r}")
        if not self.transport.is_up(broker_id):
            raise ValueError(f"broker {broker_id!r} is down")

    def _admit(
        self, broker_id: Hashable, items: Sequence[Tuple[Hashable, Subscription]]
    ) -> List[Tuple[Hashable, Subscription]]:
        """Check ``items`` against the live subscription ids; return the new ones.

        Brokers key tables, profiles and forwarded sets on the subscription
        id, so a live id is one client's one rectangle at one broker: an id
        arriving again under another client, at another broker or with other
        ranges raises ``ValueError`` before anything is registered (the
        second rectangle would otherwise be routed by the first one's
        geometry and lose deliveries); an exact repeat is dropped, so one
        withdrawal still removes the subscription.  Withdrawing frees the id.
        """
        self._require_up(broker_id)
        fresh: Dict[Hashable, Tuple[Hashable, Subscription]] = {}
        for client_id, subscription in items:
            sub_id = subscription.sub_id
            held = self._live_ids.get(sub_id)
            if held is None:
                holder, first = fresh.setdefault(sub_id, (client_id, subscription))
                held = (holder, broker_id, first)
            if (held[0], held[1], held[2].ranges) != (
                client_id, broker_id, subscription.ranges
            ):
                raise ValueError(
                    f"subscription id {sub_id!r} is already live for client "
                    f"{held[0]!r} at broker {held[1]!r}; withdraw it before reusing "
                    f"the id for another client, broker or ranges"
                )
        for sub_id, (client_id, subscription) in fresh.items():
            self._live_ids[sub_id] = (client_id, broker_id, subscription)
        return list(fresh.values())

    def subscribe(self, broker_id: Hashable, client_id: Hashable, subscription: Subscription) -> None:
        """Register a client subscription at ``broker_id`` and propagate it network-wide.

        Repeating a live subscription exactly is a no-op; reusing a live id
        any other way raises ``ValueError`` (see :meth:`_admit`).  A client
        may hold subscriptions at several brokers.
        """
        if self._admit(broker_id, [(client_id, subscription)]):
            self.brokers[broker_id].subscribe_local(client_id, subscription)

    def subscribe_batch_async(
        self, broker_id: Hashable, items: Sequence[Tuple[Hashable, Subscription]]
    ) -> None:
        """Like :meth:`subscribe_batch` without waiting for propagation.

        Under a simulated transport the batch's messages are scheduled on the
        kernel; call :meth:`flush` (or keep running the scenario) to let them
        arrive.  Safe to call from inside a kernel callback, where a nested
        flush would re-enter the event loop.
        """
        self.brokers[broker_id].subscribe_batch(self._admit(broker_id, items))

    def subscribe_batch(
        self, broker_id: Hashable, items: Sequence[Tuple[Hashable, Subscription]]
    ) -> None:
        """Register a batch of ``(client_id, subscription)`` pairs at one broker.

        The whole batch is checked against the live ids (and against itself)
        before any of it is registered; then it is :meth:`subscribe` per pair,
        in order.  Under a simulated transport the propagation is drained
        before returning.
        """
        self.subscribe_batch_async(broker_id, items)
        self.flush()

    def _live_home(self, client_id: Hashable, sub_id: Hashable) -> Optional[Hashable]:
        """The broker holding ``client_id``'s live ``sub_id``; ``None`` when it holds none.

        Raises ``ValueError`` when that broker is down.
        """
        held = self._live_ids.get(sub_id)
        if held is None or held[0] != client_id:
            return None
        if not self.transport.is_up(held[1]):
            raise ValueError(f"broker {held[1]!r} is down")
        return held[1]

    def unsubscribe(self, client_id: Hashable, sub_id: Hashable) -> bool:
        """Withdraw a previously registered client subscription network-wide.

        Returns True when the subscription existed.  The withdrawal is
        propagated with the same covering-aware logic the brokers use, so
        subscriptions that were suppressed because this one covered them are
        re-forwarded where needed and no remaining subscriber loses events.
        """
        broker_id = self._live_home(client_id, sub_id)
        if broker_id is None:
            return False
        removed = self.brokers[broker_id].unsubscribe_local(client_id, sub_id)
        if removed:
            del self._live_ids[sub_id]
        return removed

    def unsubscribe_batch_async(
        self, items: Sequence[Tuple[Hashable, Hashable]]
    ) -> List[bool]:
        """Like :meth:`unsubscribe_batch` without waiting for propagation."""
        items = list(items)
        groups: Dict[Hashable, List[Tuple[int, Hashable, Hashable]]] = {}
        flags: List[bool] = [False] * len(items)
        for position, (client_id, sub_id) in enumerate(items):
            broker_id = self._live_home(client_id, sub_id)
            if broker_id is not None:
                groups.setdefault(broker_id, []).append((position, client_id, sub_id))
        for broker_id, group in groups.items():
            removed = self.brokers[broker_id].unsubscribe_batch(
                [(client_id, sub_id) for _, client_id, sub_id in group]
            )
            for (position, _, sub_id), found in zip(group, removed):
                flags[position] = found
                if found:
                    del self._live_ids[sub_id]
        return flags

    def unsubscribe_batch(self, items: Sequence[Tuple[Hashable, Hashable]]) -> List[bool]:
        """Withdraw a batch of ``(client_id, sub_id)`` pairs network-wide.

        Pairs are grouped by each subscription's home broker (preserving
        order within each group) and withdrawn there as :meth:`unsubscribe`
        would, one after another.  A pair naming no live subscription of that
        client yields False; a live one homed at a crashed broker raises like
        the sequential API.  Returns one found-flag per pair, in input order.
        """
        flags = self.unsubscribe_batch_async(items)
        self.flush()
        return flags

    def publish_async(self, broker_id: Hashable, event: Event) -> None:
        """Inject ``event`` at ``broker_id`` without waiting for propagation.

        Under a simulated transport the event's messages are scheduled on the
        kernel; call :meth:`flush` (or keep running the scenario) to let them
        arrive.  Under the synchronous transport this is equivalent to
        :meth:`publish` except for the return value.
        """
        self._require_up(broker_id)
        self._check_schema(event)
        self._start_publish(broker_id, event)
        self.brokers[broker_id].receive_event(LOCAL_INTERFACE, event)

    def _check_schema(self, event: Event) -> None:
        """Raise ``ValueError`` unless ``event`` quantises onto the network's grid.

        Checked once where an event enters the network, before anything is
        stamped, traced or routed, not per hop: the tables' tests and
        :attr:`Event.key` compare cells field for field, which only means
        something on a compatible schema.  Every broker holds the network's
        schema.
        """
        if not (event.schema is self.schema or self.schema.compatible_with(event.schema)):
            raise ValueError(f"event {event.event_id!r} is on another schema than the network")

    def _start_publish(self, broker_id: Hashable, event: Event) -> None:
        """Stamp ``event``'s publish time and record its ``publish`` root span."""
        now = self.transport.now
        self._publish_times.setdefault(event.event_id, now)
        if self.tracing.enabled:
            self.tracing.record(
                Span(
                    trace_id=self.tracing.trace_id_for("evt", event.event_id),
                    kind="publish",
                    name=str(event.event_id),
                    broker_id=broker_id,
                    start=now,
                    detail=make_detail(origin=str(broker_id)),
                )
            )

    def publish(self, broker_id: Hashable, event: Event) -> Set[Hashable]:
        """Publish ``event`` at ``broker_id``; return the set of clients it was delivered to.

        Blocks (in simulated time) until the network is quiescent, so the
        returned set is complete even under a latency/queueing transport.
        """
        # collect_recipients for one id, spelled out: this is the hot path.
        # By event id: the flush also drains deliveries of any events still in
        # flight from earlier publish_async calls.
        event_id = event.event_id
        outer = self._collecting.get(event_id)
        recipients = self._collecting[event_id] = set()
        try:
            self.publish_async(broker_id, event)
            self.flush()
        finally:
            self._stop_collecting(event_id, recipients, outer)
        return recipients

    def publish_batch(self, broker_id: Hashable, events: Sequence[Event]) -> List[Set[Hashable]]:
        """Publish a batch of events at ``broker_id``; return per-event delivery sets.

        Equivalent to calling :meth:`publish` per event, but the events'
        Z keys are computed in one amortised pass at the publishing broker
        before routing starts (when one of its tables has an index).  Recipients are collected
        by event id, so a batch repeating an id is cut into chunks at each
        repeat: each chunk is keyed in one pass and flushed before the next,
        and every position gets the clients its own event reached.  Every
        event's schema is checked before any chunk is stamped or routed.
        """
        self._require_up(broker_id)
        events = list(events)
        for event in events:
            self._check_schema(event)
        results: List[Set[Hashable]] = []
        chunk: List[Event] = []
        chunk_ids: Set[Hashable] = set()
        for event in events:
            if event.event_id in chunk_ids:
                results += self._publish_chunk(broker_id, chunk)
                chunk, chunk_ids = [], set()
            chunk.append(event)
            chunk_ids.add(event.event_id)
        return results + self._publish_chunk(broker_id, chunk)

    def _publish_chunk(self, broker_id: Hashable, events: List[Event]) -> List[Set[Hashable]]:
        """Publish events with distinct ids as one batch and flush; per-event recipients."""
        for event in events:
            self._start_publish(broker_id, event)
        # Deliveries of other events already in flight drain in the same
        # flush; collecting by event id leaves them out of the result.
        with self.collect_recipients(event.event_id for event in events) as delivered:
            self.brokers[broker_id].publish_batch(events)
            self.flush()
        return [delivered[event.event_id] for event in events]

    def flush(self) -> int:
        """Deliver every in-flight message; return the number of kernel steps.

        Once the network is quiescent nothing can still be delivered, so the
        publish-time bookkeeping behind latency measurement is dropped — the
        table cannot grow without bound, and a later reuse of an event id
        measures its own propagation, not the gap since the first run.
        """
        steps = self.transport.flush()
        self._publish_times.clear()
        return steps

    # ---------------------------------------------------------------- auditing
    def expected_recipients(self, event: Event, origin: Optional[Hashable] = None) -> Set[Hashable]:
        """Ground truth: every live client with a subscription matching ``event``.

        A subscription counts where it was registered: one homed at a crashed
        broker is excluded; with ``origin`` the set is further restricted to
        subscriptions reachable from the publishing broker through live
        brokers (an event cannot cross a dead broker).  A client with
        subscriptions at several brokers is expected wherever one of its
        matching subscriptions is allowed.
        """
        if origin is not None:
            allowed = self.reachable_brokers(origin)
        else:
            allowed = self.live_brokers()
        return {
            client_id
            for client_id, home, subscription in self._live_ids.values()
            if home in allowed and subscription.matches(event)
        }

    def publish_and_audit(self, broker_id: Hashable, event: Event) -> Tuple[Set[Hashable], Set[Hashable]]:
        """Publish an event and return ``(missed_clients, extra_clients)`` against ground truth."""
        delivered = self.publish(broker_id, event)
        expected = self.expected_recipients(event, origin=broker_id)
        missed, extra = expected - delivered, delivered - expected
        self.audited_delivered += len(expected) - len(missed)
        self.audited_missed += len(missed)
        self.audited_duplicates += len(extra)
        return missed, extra

    # ------------------------------------------------------------------- stats
    def routing_state(self) -> Dict[str, Dict[str, Dict[str, List[str]]]]:
        """Normalised per-broker routing/covering state dump.

        Two runs that made the same forwarding decisions — whatever the
        transport, API (batch vs sequential) or dict iteration history —
        produce ``==``-comparable dumps.  Used by the cross-transport and
        batch-equivalence tests and ``experiments/subscription_churn.py``.
        """
        return {
            str(broker_id): self.brokers[broker_id].routing_state()
            for broker_id in sorted(self.brokers, key=str)
        }

    def routing_table_entries(self) -> int:
        """Total subscription entries stored across all brokers."""
        return sum(broker.routing_table_size() for broker in self.brokers.values())

    # -------------------------------------------------------------------- obs
    def publish_metrics(self) -> None:
        """Publish every counter into the metrics registry, collector-style.

        Each value is read where it is kept: the brokers' :class:`BrokerStats`
        and their routing tables' match work (the message counts by kind are
        sums of them and of the transport's), the network's running audit
        tallies, the shared profile cache and the transport's stats.  Idempotent: running totals overwrite the previous
        scrape's values, so calling this twice never double-counts, and the
        hot paths keep incrementing plain attributes at no registry cost.
        """
        registry = self.metrics
        broker_counters = registry.counter(
            "broker_counter_total",
            "Per-broker pub/sub counters, by counter name.",
            labelnames=("broker", "counter"),
        )
        for broker_id, broker in self.brokers.items():
            counters = broker.stats.as_dict()
            (
                counters["match_index_lookups"],
                counters["match_index_candidates"],
                counters["match_index_false_positives"],
            ) = broker.routing_table.match_work()
            for counter_name, value in counters.items():
                broker_counters.set_total(
                    value, broker=str(broker_id), counter=counter_name
                )
        registry.gauge(
            "routing_table_entries",
            "Subscription entries stored across all routing tables "
            "(the quantity covering shrinks).",
        ).set(self.routing_table_entries())
        network_counters = registry.counter(
            "network_counter_total",
            "Network-wide pub/sub counters, by counter name.",
            labelnames=("counter",),
        )
        cache = self.profile_cache
        for counter_name, value in (
            ("subscription_messages", self.subscription_messages),
            ("unsubscription_messages", self.unsubscription_messages),
            ("event_messages", self.event_messages),
            ("events_delivered", self.audited_delivered),
            ("events_missed", self.audited_missed),
            ("duplicate_deliveries", self.audited_duplicates),
            ("match_run_cache_hits", cache.hits),
            ("match_run_cache_misses", cache.misses),
            ("match_run_cache_evictions", cache.evictions),
        ):
            network_counters.set_total(value, counter=counter_name)
        transport = self.transport.stats
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
        if self.tracing.enabled:
            trace_gauge = registry.gauge(
                "trace_spans",
                "Spans held by the bounded trace log, by disposition.",
                labelnames=("state",),
            )
            trace_gauge.set(len(self.tracing), state="stored")
            trace_gauge.set(self.tracing.dropped, state="dropped")
        self._publish_hot_path_metrics()
        self._publish_interface_metrics()

    def _publish_hot_path_metrics(self) -> None:
        """Publish the process-wide profiler's per-hot-path call counts and seconds.

        The two series are rebuilt from :meth:`HotPathProfiler.summary` on
        every scrape while :data:`PROFILER` is enabled and are absent
        otherwise, so a scrape never carries timings frozen by ``disable()``
        or paths dropped by ``clear()``.
        """
        self.metrics.remove("hot_path_calls_total")
        self.metrics.remove("hot_path_seconds_total")
        if not PROFILER.enabled:
            return
        calls = self.metrics.counter(
            "hot_path_calls_total",
            "Calls of each profiled hot path (process-wide, while profiling is on).",
            labelnames=("path",),
        )
        seconds = self.metrics.counter(
            "hot_path_seconds_total",
            "Wall-clock seconds spent in each profiled hot path.",
            labelnames=("path",),
        )
        for path, timing in PROFILER.summary().items():
            calls.set_total(timing["calls"], path=path)
            seconds.set_total(timing["total_s"], path=path)

    def _publish_interface_metrics(self) -> None:
        """Publish per-interface match-index signals.

        Only interfaces that have outgrown their scan carry an index; a
        network of small tables publishes nothing here.  An interface keeps
        its index for life, so its counters are that index's running totals.
        Why a table's grid is what it is reads off three series: the
        ``precision_bits`` gauge, the ``subscriptions`` gauge (the size rule's
        floor) and the ``probe_flattens`` counter (the flattens its probes
        paid for, where the cost model may step the grid past that floor).
        """
        interface_counters = None
        interface_gauges = None
        for broker_id in sorted(self.brokers, key=str):
            broker = self.brokers[broker_id]
            for interface_id, table in broker.routing_table.interface_tables().items():
                index = table.match_index
                if index is None:
                    continue
                if interface_counters is None:
                    interface_counters = self.metrics.counter(
                        "match_interface_total",
                        "Per-interface match-index counters.",
                        labelnames=("broker", "interface", "counter"),
                    )
                    interface_gauges = self.metrics.gauge(
                        "match_interface",
                        "Per-interface match-index structure gauges.",
                        labelnames=("broker", "interface", "gauge"),
                    )
                labels = {"broker": str(broker_id), "interface": str(interface_id)}
                stats = index.stats
                for counter_name in (
                    "inserts",
                    "removals",
                    "coarsened_subscriptions",
                    "lookups",
                    "candidates_checked",
                    "false_positives",
                    "probe_flattens",
                ):
                    interface_counters.set_total(
                        getattr(stats, counter_name), counter=counter_name, **labels
                    )
                interface_gauges.set(index.segment_count(), gauge="segments", **labels)
                interface_gauges.set(len(table), gauge="subscriptions", **labels)
                interface_gauges.set(index.precision_bits, gauge="precision_bits", **labels)

    def scrape(self) -> str:
        """Publish current counters and render the Prometheus text exposition."""
        self.publish_metrics()
        return render_prometheus(self.metrics)

    def metrics_snapshot(self) -> Dict[str, object]:
        """Publish current counters and return the JSON-serializable snapshot."""
        self.publish_metrics()
        return snapshot(self.metrics)
