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
verify the paper's safety claim — approximate covering never loses events —
and observe that an *unsound* strategy (the probabilistic baseline) can.
Under churn the ground truth is restricted to *surviving, reachable*
subscribers: clients homed at brokers that are up and connected to the
publishing broker through up brokers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
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

import networkx as nx

from ..core.covering import CoveringProfiler
from ..index.config import IndexConfig
from ..obs.exposition import render_prometheus, snapshot
from ..obs.registry import MetricsRegistry
from ..obs.trace import Span, TraceLog, make_detail
from ..sim.transport import Message, SyncTransport, Transport, recent_window
from .broker import LOCAL_INTERFACE, Broker
from .routing_table import check_covering_kind
from .schema import AttributeSchema
from .stats import NetworkStats
from .subscription import Event, Subscription
from .subscription_store import ProfileCache

__all__ = [
    "BrokerNetwork",
    "DeliveryLog",
    "DeliveryRecord",
    "PartitionAudit",
    "tree_topology",
    "chain_topology",
    "star_topology",
]


def _require_positive_brokers(num_brokers: int) -> None:
    if num_brokers <= 0:
        raise ValueError(f"num_brokers must be positive, got {num_brokers}")


def tree_topology(num_brokers: int, branching: int = 2) -> List[Tuple[int, int]]:
    """Return the edge list of a balanced tree with ``num_brokers`` nodes."""
    _require_positive_brokers(num_brokers)
    if branching < 1:
        raise ValueError(f"branching must be at least 1, got {branching}")
    edges = []
    for child in range(1, num_brokers):
        parent = (child - 1) // branching
        edges.append((parent, child))
    return edges


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
    transport).  A plain named tuple: one is built per delivery, and it
    carries no instance dict.
    """

    client_id: Hashable
    subscription_id: Hashable
    event_id: Hashable
    time: float = 0.0


class DeliveryLog:
    """Every delivery a network made, of which the most recent are kept.

    ``len`` counts every delivery ever recorded; the log retains the last
    :data:`~repro.sim.transport.RETENTION` records.  Integer and slice
    indices are absolute positions in the full history (negative ones count
    back from its end): a retained position returns its record, a dropped
    one raises ``IndexError`` — a slice reaching back past the retained
    records raises too, rather than coming back shorter.  Iteration yields
    the retained records, oldest first.
    """

    __slots__ = ("_records", "_total")

    def __init__(self) -> None:
        self._records: Deque[DeliveryRecord] = recent_window()
        self._total = 0

    def append(self, record: DeliveryRecord) -> None:
        self._total += 1
        self._records.append(record)

    def __len__(self) -> int:
        return self._total

    def __iter__(self) -> Iterator[DeliveryRecord]:
        return iter(self._records)

    def __getitem__(self, position):
        first = self._total - len(self._records)
        if isinstance(position, slice):
            positions = range(*position.indices(self._total))
            if positions and min(positions) < first:
                raise IndexError(
                    f"delivery log positions before {first} have been dropped"
                )
            retained = list(self._records) if positions else []
            return [retained[at - first] for at in positions]
        at = position + self._total if position < 0 else position
        if not first <= at < self._total:
            raise IndexError(
                f"delivery log position {position} is not retained "
                f"(retained: {first}..{self._total - 1})"
            )
        return self._records[at - first]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeliveryLog):
            return NotImplemented
        return self._total == other._total and self._records == other._records

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"DeliveryLog(total={self._total}, retained={list(self._records)!r})"


@dataclass(frozen=True)
class PartitionAudit:
    """Audit outcome for one live component of a (possibly split) overlay.

    ``component`` is the set of live brokers the event could reach,
    ``origin`` the broker it was published at, and ``missed`` / ``extra``
    the audit deltas against the component-restricted ground truth — both
    empty when delivery within the partition was exact.
    """

    component: frozenset
    origin: Hashable
    event_id: Hashable
    missed: Set[Hashable]
    extra: Set[Hashable]

    @property
    def clean(self) -> bool:
        return not self.missed and not self.extra


@dataclass
class BrokerNetwork:
    """A simulated network of content-based publish/subscribe brokers.

    Parameters
    ----------
    schema:
        Shared message schema.
    covering:
        Covering strategy used by every broker
        (:data:`~repro.pubsub.routing_table.COVERING_KINDS`).
    samples, seed, matching:
        Passed to every :class:`~repro.pubsub.broker.Broker`.
    transport:
        Message transport between brokers; defaults to a fresh
        :class:`~repro.sim.transport.SyncTransport` (immediate inline
        delivery).  Pass a :class:`~repro.sim.transport.SimTransport` for
        latency, queueing and churn.
    config:
        The one :class:`~repro.index.config.IndexConfig` every broker is
        built with (defaults to ``IndexConfig()``): curve, ε, cube and run
        budgets, precision, match backend and shard count.  Curves and
        backends change run/segment statistics, never delivery semantics.
        The network builds one
        :class:`~repro.pubsub.subscription_store.ProfileCache` under it and
        hands it to every broker, so each subscription's covering geometry
        and match-index key runs are computed once network-wide.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` the network
        publishes its counters into at scrape time (:meth:`scrape`,
        :meth:`publish_metrics`).  Defaults to a disabled registry: the hot
        paths keep incrementing plain dataclass counters either way, so a
        disabled registry costs nothing per event.
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
        of them, indexing is by absolute position, and the most recent
        :data:`~repro.sim.transport.RETENTION` records are retained, so a
        long run holds bounded memory.  :meth:`publish`,
        :meth:`publish_batch` and the scenario runner read their results
        through :meth:`collect_recipients`, never from the log.
    """

    schema: AttributeSchema
    covering: str = "approximate"
    samples: int = 8
    seed: Optional[int] = None
    matching: str = "linear"
    transport: Optional[Transport] = None
    metrics: Optional[MetricsRegistry] = None
    tracing: Optional[TraceLog] = None
    config: Optional[IndexConfig] = None
    brokers: Dict[Hashable, Broker] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_covering_kind(self.covering)
        if self.config is None:
            self.config = IndexConfig()
        if self.transport is None:
            self.transport = SyncTransport()
        self.transport.bind(self)
        if self.metrics is None:
            self.metrics = MetricsRegistry(enabled=False)
        if self.tracing is None:
            self.tracing = TraceLog(enabled=False, seed=self.seed)
        # Span timestamps are simulated time, not wall clock — deterministic
        # under a seeded SimTransport, frozen at 0.0 under SyncTransport.
        self.tracing.bind_clock(lambda: self.transport.now)
        self.graph = nx.Graph()
        self.subscription_messages = 0
        self.unsubscription_messages = 0
        self.event_messages = 0
        # Running delivery-audit tallies, accumulated by publish_and_audit so
        # scrapes report real delivery counts without a replay.
        self.audited_delivered = 0
        self.audited_missed = 0
        self.audited_duplicates = 0
        self.deliveries = DeliveryLog()
        # Event id -> the clients it has reached, for the ids a caller is
        # collecting (see collect_recipients).
        self._collecting: Dict[Hashable, Set[Hashable]] = {}
        self._client_home: Dict[Hashable, Hashable] = {}
        self._client_subscriptions: Dict[Hashable, List[Subscription]] = {}
        # Every live subscription id -> (client, home broker, ranges): an id
        # names one client's one rectangle network-wide (see _admit).
        self._live_ids: Dict[Hashable, Tuple[Hashable, Hashable, tuple]] = {}
        self._publish_times: Dict[Hashable, float] = {}
        self._phase_seconds: Dict[str, float] = {}
        self.profile_cache = ProfileCache(
            CoveringProfiler(
                self.schema.num_attributes,
                self.schema.order,
                config=self.config,
            )
            if self.covering == "approximate"
            else None
        )

    # ---------------------------------------------------------------- topology
    def add_broker(self, broker_id: Hashable) -> Broker:
        """Create and register a broker."""
        if broker_id in self.brokers:
            raise ValueError(f"broker {broker_id!r} already exists")
        broker = Broker(
            broker_id=broker_id,
            schema=self.schema,
            covering=self.covering,
            samples=self.samples,
            seed=self.seed,
            matching=self.matching,
            profile_cache=self.profile_cache,
            trace=self.tracing if self.tracing.enabled else None,
            config=self.config,
        )
        broker.attach_transport(
            self._transport_subscription,
            self._transport_event,
            self._record_delivery,
            send_unsubscription=self._transport_unsubscription,
        )
        self.brokers[broker_id] = broker
        self.graph.add_node(broker_id)
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
        if self.graph.has_edge(a, b):
            return
        if nx.has_path(self.graph, a, b):
            raise ValueError(
                f"connecting {a!r} and {b!r} would create a cycle; the overlay must be a tree"
            )
        self.graph.add_edge(a, b)
        self.brokers[a].connect(b)
        self.brokers[b].connect(a)

    @classmethod
    def from_topology(
        cls,
        schema: AttributeSchema,
        edges: Iterable[Tuple[Hashable, Hashable]],
        covering: str = "approximate",
        samples: int = 8,
        seed: Optional[int] = None,
        matching: str = "linear",
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
        """
        network = cls(
            schema=schema,
            covering=covering,
            samples=samples,
            seed=seed,
            matching=matching,
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
    def _transport_subscription(self, sender: Hashable, receiver: Hashable, subscription: Subscription) -> None:
        self.subscription_messages += 1
        self.transport.send("subscription", sender, receiver, subscription)

    def _transport_unsubscription(self, sender: Hashable, receiver: Hashable, sub_id: Hashable) -> None:
        self.unsubscription_messages += 1
        self.transport.send("unsubscription", sender, receiver, sub_id)

    def _transport_event(self, sender: Hashable, receiver: Hashable, event: Event) -> None:
        self.event_messages += 1
        self.transport.send("event", sender, receiver, event)

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

    def _observe_arrival(self, message: Message, latency: float) -> None:
        """Transport callback: one message just reached its receiving broker.

        Records the per-hop span of event messages — ``start`` is the send
        time, ``duration`` the hop latency (propagation plus queue wait),
        ``parent``/``broker_id`` the overlay link it crossed.
        """
        if not self.tracing.enabled or message.kind != "event":
            return
        event_id = getattr(message.payload, "event_id", None)
        self.tracing.record(
            Span(
                trace_id=self.tracing.trace_id_for("evt", event_id),
                kind="hop",
                name=str(event_id),
                broker_id=message.receiver,
                parent=message.sender,
                start=message.sent_at,
                duration=latency,
                hop=message.hops,
            )
        )

    def _record_delivery(self, client_id: Hashable, subscription_id: Hashable, event: Event) -> None:
        now = self.transport.now
        event_id = event.event_id
        self.transport.record_delivery_latency(now - self._publish_times.get(event_id, now))
        self.deliveries.append(DeliveryRecord(client_id, subscription_id, event_id, now))
        recipients = self._collecting.get(event_id)
        if recipients is not None:
            recipients.add(client_id)

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

    def client_home(self, client_id: Hashable) -> Optional[Hashable]:
        """The broker a client subscribed through, or ``None`` if unknown."""
        return self._client_home.get(client_id)

    def live_brokers(self) -> Set[Hashable]:
        """Brokers currently up."""
        return {broker_id for broker_id in self.brokers if self.transport.is_up(broker_id)}

    def reachable_brokers(self, origin: Hashable) -> Set[Hashable]:
        """Brokers reachable from ``origin`` through live brokers (incl. itself)."""
        if origin not in self.brokers:
            raise ValueError(f"unknown broker {origin!r}")
        if not self.transport.is_up(origin):
            return set()
        live = self.live_brokers()
        component = nx.node_connected_component(self.graph.subgraph(live), origin)
        return set(component)

    def live_components(self) -> List[Set[Hashable]]:
        """Connected components of the live overlay, deterministically ordered.

        A fully-up acyclic overlay has exactly one component; every crash of
        a cut vertex splits the survivors into independent partitions.  The
        components are sorted by their smallest member (string order) so two
        same-seed runs enumerate them identically.
        """
        live = self.graph.subgraph(self.live_brokers())
        components = [set(component) for component in nx.connected_components(live)]
        return sorted(components, key=lambda c: min(str(b) for b in c))

    # ------------------------------------------------------------------- usage
    @contextmanager
    def _timed_phase(self, phase: str):
        """Accumulate wall-clock time for one subscription-lifecycle phase."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._phase_seconds[phase] = self._phase_seconds.get(phase, 0.0) + (
                time.perf_counter() - start
            )

    def phase_timings(self) -> Dict[str, float]:
        """Accumulated wall-clock seconds per lifecycle phase."""
        return dict(self._phase_seconds)

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
        if broker_id not in self.brokers:
            raise ValueError(f"unknown broker {broker_id!r}")
        if not self.transport.is_up(broker_id):
            raise ValueError(f"broker {broker_id!r} is down")
        fresh: Dict[Hashable, Tuple[Hashable, Subscription]] = {}
        for client_id, subscription in items:
            sub_id = subscription.sub_id
            held = self._live_ids.get(sub_id)
            if held is None:
                holder, first = fresh.setdefault(sub_id, (client_id, subscription))
                held = (holder, broker_id, first.ranges)
            if held != (client_id, broker_id, subscription.ranges):
                raise ValueError(
                    f"subscription id {sub_id!r} is already live for client "
                    f"{held[0]!r} at broker {held[1]!r}; withdraw it before reusing "
                    f"the id for another client, broker or ranges"
                )
        for sub_id, (client_id, subscription) in fresh.items():
            self._live_ids[sub_id] = (client_id, broker_id, subscription.ranges)
            self._client_home[client_id] = broker_id
            self._client_subscriptions.setdefault(client_id, []).append(subscription)
        return list(fresh.values())

    def _retire(self, client_id: Hashable, sub_id: Hashable) -> None:
        """Forget a withdrawn subscription (the counterpart of :meth:`_admit`)."""
        self._live_ids.pop(sub_id, None)
        self._client_subscriptions[client_id] = [
            sub
            for sub in self._client_subscriptions.get(client_id, [])
            if sub.sub_id != sub_id
        ]

    def subscribe(self, broker_id: Hashable, client_id: Hashable, subscription: Subscription) -> None:
        """Register a client subscription at ``broker_id`` and propagate it network-wide.

        Repeating a live subscription exactly is a no-op; reusing a live id
        any other way raises ``ValueError`` (see :meth:`_admit`).
        """
        if not self._admit(broker_id, [(client_id, subscription)]):
            return
        with self._timed_phase("subscribe"):
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

        Equivalent to calling :meth:`subscribe` per pair (identical final
        routing state, pinned by the batch-equivalence tests), with the
        per-subscription profile work amortised across the batch.  Under a
        simulated transport the propagation is drained before returning.
        """
        with self._timed_phase("subscribe_batch"):
            self.subscribe_batch_async(broker_id, items)
            self.flush()

    def unsubscribe(self, client_id: Hashable, sub_id: Hashable) -> bool:
        """Withdraw a previously registered client subscription network-wide.

        Returns True when the subscription existed.  The withdrawal is
        propagated with the same covering-aware logic the brokers use, so
        subscriptions that were suppressed because this one covered them are
        re-forwarded where needed and no remaining subscriber loses events.
        """
        broker_id = self._client_home.get(client_id)
        if broker_id is None:
            return False
        if not self.transport.is_up(broker_id):
            raise ValueError(f"broker {broker_id!r} is down")
        with self._timed_phase("unsubscribe"):
            removed = self.brokers[broker_id].unsubscribe_local(client_id, sub_id)
        if removed:
            self._retire(client_id, sub_id)
        return removed

    def unsubscribe_batch_async(
        self, items: Sequence[Tuple[Hashable, Hashable]]
    ) -> List[bool]:
        """Like :meth:`unsubscribe_batch` without waiting for propagation."""
        items = list(items)
        groups: Dict[Hashable, List[Tuple[int, Hashable, Hashable]]] = {}
        flags: List[bool] = [False] * len(items)
        for position, (client_id, sub_id) in enumerate(items):
            broker_id = self._client_home.get(client_id)
            if broker_id is None:
                continue
            if not self.transport.is_up(broker_id):
                raise ValueError(f"broker {broker_id!r} is down")
            groups.setdefault(broker_id, []).append((position, client_id, sub_id))
        for broker_id, group in groups.items():
            removed = self.brokers[broker_id].unsubscribe_batch(
                [(client_id, sub_id) for _, client_id, sub_id in group]
            )
            for (position, client_id, sub_id), found in zip(group, removed):
                flags[position] = found
                if found:
                    self._retire(client_id, sub_id)
        return flags

    def unsubscribe_batch(self, items: Sequence[Tuple[Hashable, Hashable]]) -> List[bool]:
        """Withdraw a batch of ``(client_id, sub_id)`` pairs network-wide.

        Pairs are grouped by the client's home broker (preserving order
        within each group) and withdrawn through the broker's batch path;
        the promotion engine runs per withdrawal exactly as it would under
        sequential :meth:`unsubscribe` calls.  Unknown clients yield False;
        a pair homed at a crashed broker raises like the sequential API.
        Returns one found-flag per pair, in input order.
        """
        with self._timed_phase("unsubscribe_batch"):
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
        if broker_id not in self.brokers:
            raise ValueError(f"unknown broker {broker_id!r}")
        if not self.transport.is_up(broker_id):
            raise ValueError(f"broker {broker_id!r} is down")
        self._publish_times.setdefault(event.event_id, self.transport.now)
        if self.tracing.enabled:
            self.tracing.record(
                Span(
                    trace_id=self.tracing.trace_id_for("evt", event.event_id),
                    kind="publish",
                    name=str(event.event_id),
                    broker_id=broker_id,
                    start=self.transport.now,
                    detail=make_detail(origin=str(broker_id)),
                )
            )
        self.brokers[broker_id].publish_local(event)

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

        Equivalent to calling :meth:`publish` per event, but under SFC
        matching the events' curve keys are computed in one amortised pass at
        the publishing broker before routing starts.
        """
        if broker_id not in self.brokers:
            raise ValueError(f"unknown broker {broker_id!r}")
        if not self.transport.is_up(broker_id):
            raise ValueError(f"broker {broker_id!r} is down")
        events = list(events)
        now = self.transport.now
        for event in events:
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

        Clients homed at crashed brokers are excluded; with ``origin`` the set
        is further restricted to clients reachable from the publishing broker
        through live brokers (an event cannot cross a dead broker).
        """
        if origin is not None:
            allowed = self.reachable_brokers(origin)
        else:
            allowed = self.live_brokers()
        return {
            client_id
            for client_id, subscriptions in self._client_subscriptions.items()
            if self._client_home.get(client_id) in allowed
            and any(sub.matches(event) for sub in subscriptions)
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

    def publish_and_audit_partitions(self, events: Sequence[Event]) -> List[PartitionAudit]:
        """Audit delivery exactness in *every* live component of the overlay.

        One event is published per live component — at the component's
        smallest broker (string order) — and audited against the
        component-restricted ground truth, so a netsplit overlay is checked
        partition by partition rather than only from one publisher's side.
        ``events`` supplies the per-component events in component order (see
        :meth:`live_components`); it must provide at least one event per
        component, with distinct event ids.  Returns one
        :class:`PartitionAudit` per component.
        """
        components = self.live_components()
        events = list(events)
        if len(events) < len(components):
            raise ValueError(
                f"need one event per live component ({len(components)}), got {len(events)}"
            )
        audits: List[PartitionAudit] = []
        for component, event in zip(components, events):
            origin = min(component, key=str)
            missed, extra = self.publish_and_audit(origin, event)
            audits.append(
                PartitionAudit(
                    component=frozenset(component),
                    origin=origin,
                    event_id=event.event_id,
                    missed=missed,
                    extra=extra,
                )
            )
        return audits

    # ------------------------------------------------------------------- stats
    def routing_state(self) -> Dict[str, Dict[str, Dict[str, List[str]]]]:
        """Normalised per-broker routing/covering state dump.

        Two runs that made the same forwarding decisions — whatever the
        transport, API (batch vs sequential) or dict iteration history —
        produce ``==``-comparable dumps.  Used by the cross-transport and
        batch-equivalence tests and the benchmark smoke check.
        """
        return {
            str(broker_id): self.brokers[broker_id].routing_state()
            for broker_id in sorted(self.brokers, key=str)
        }

    def routing_table_entries(self) -> int:
        """Total subscription entries stored across all brokers."""
        return sum(broker.routing_table_size() for broker in self.brokers.values())

    def collect_stats(self, events: Sequence[Tuple[Hashable, Event]] = ()) -> NetworkStats:
        """Aggregate broker counters into a :class:`NetworkStats` snapshot.

        ``events`` optionally replays an audit: each ``(broker_id, event)``
        pair is published and checked against the ground truth.  The
        delivered/missed/duplicate counters are the network's *running* audit
        tallies (every ``publish_and_audit`` call contributes), so a scrape
        after a traced run reports the real delivery counts.
        """
        stats = NetworkStats(
            per_broker={broker_id: broker.stats for broker_id, broker in self.brokers.items()},
            routing_table_entries=self.routing_table_entries(),
            subscription_messages=self.subscription_messages,
            unsubscription_messages=self.unsubscription_messages,
            event_messages=self.event_messages,
            transport=self.transport.stats,
            phase_timings=self.phase_timings(),
            profile_cache_hits=self.profile_cache.hits,
            profile_cache_misses=self.profile_cache.misses,
            match_run_cache_hits=self.profile_cache.run_hits,
            match_run_cache_misses=self.profile_cache.run_misses,
            match_run_cache_evictions=self.profile_cache.run_evictions,
        )
        for broker_id, event in events:
            self.publish_and_audit(broker_id, event)
        stats.events_delivered = self.audited_delivered
        stats.events_missed = self.audited_missed
        stats.duplicate_deliveries = self.audited_duplicates
        # The match-index work counters live in the per-interface indexes and
        # are pulled into BrokerStats on read rather than per event.
        for broker in self.brokers.values():
            broker.sync_match_stats()
        return stats

    # -------------------------------------------------------------------- obs
    def publish_metrics(self) -> NetworkStats:
        """Publish the current counters into the metrics registry.

        Collector-style and idempotent: running totals are copied into the
        registry (overwriting the previous scrape's values), so calling this
        twice never double-counts.  Returns the :class:`NetworkStats`
        snapshot the publication was taken from.
        """
        stats = self.collect_stats()
        stats.publish_to(self.metrics)
        if self.tracing.enabled:
            trace_gauge = self.metrics.gauge(
                "trace_spans",
                "Spans held by the bounded trace log, by disposition.",
                labelnames=("state",),
            )
            trace_gauge.set(len(self.tracing), state="stored")
            trace_gauge.set(self.tracing.dropped, state="dropped")
        self._publish_interface_metrics()
        return stats

    def _publish_interface_metrics(self) -> None:
        """Publish per-interface match-index signals.

        Only SFC-matching interfaces carry an index; linear-matching networks
        publish nothing here.  An interface keeps one index for life, so its
        counters are that index's running totals.
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
                ):
                    interface_counters.set_total(
                        getattr(stats, counter_name), counter=counter_name, **labels
                    )
                interface_gauges.set(index.segment_count(), gauge="segments", **labels)
                interface_gauges.set(len(table), gauge="subscriptions", **labels)

    def scrape(self) -> str:
        """Publish current counters and render the Prometheus text exposition."""
        self.publish_metrics()
        return render_prometheus(self.metrics)

    def metrics_snapshot(self) -> Dict[str, object]:
        """Publish current counters and return the JSON-serializable snapshot."""
        self.publish_metrics()
        return snapshot(self.metrics)
