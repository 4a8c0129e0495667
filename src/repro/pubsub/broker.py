"""A content-based publish/subscribe broker with covering-based subscription propagation.

Each broker maintains:

* a :class:`RoutingTable` — per-interface subscription sets used to decide
  where events are forwarded (reverse-path forwarding on the subscription
  flow);
* one link record per neighbour (:class:`LinkState`): the subscriptions
  forwarded on the link, in forwarding order, and the ones held back there
  with the cover each was found under;
* an owner map for the subscriptions of its own clients.  The routing table
  holds them under :data:`LOCAL_INTERFACE` like any other interface's, and
  local delivery is one probe of that table followed by a lookup of who owns
  each matching id — the same point query (Fact 2.1) that decides forwarding.

Subscription propagation follows the standard covering optimisation: when a
subscription arrives on interface ``I`` it is stored in the table for ``I``
and considered for forwarding on every other interface ``J``.  It is actually
forwarded on ``J`` only when no previously forwarded subscription covers it.
The check is one exact scan of ``J``'s forwarded set
(:func:`~repro.geometry.transform.first_covering`), so its witness is the
first forwarded cover in forwarding order.  An exact answer meets the paper's
ε-approximate covering contract (Problem 2) for every ε: a reported cover
really covers, and none is missed.  The paper's own detector
(:mod:`repro.core.covering`) is not on this path.

The broker is a synchronous simulation object: the :class:`BrokerNetwork`
drives it by calling :meth:`receive_subscription` and :meth:`receive_event`,
and it sends through the one callback the network attaches.
It counts what it does in its :class:`BrokerStats` (plain attribute adds on
the hot paths); the network's scrape reads those counters, plus the routing
table's :meth:`~repro.pubsub.routing_table.RoutingTable.match_work`, in place.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..geometry.transform import Range, first_covering
from ..index.config import IndexConfig
from ..obs.trace import Span, TraceLog, make_detail
from .routing_table import RoutingTable, check_covering_kind
from .schema import AttributeSchema
from .subscription import Event, Subscription
from .subscription_store import ProfileCache, SubscriptionStore

__all__ = ["Broker", "BrokerStats", "LOCAL_INTERFACE"]

#: Pseudo-interface identifier for subscriptions registered by local clients.
LOCAL_INTERFACE = "__local__"


@dataclass
class BrokerStats:
    """Per-broker counters, incremented in place on the hot paths.

    The network's scrape reads them straight from here
    (:meth:`~repro.pubsub.network.BrokerNetwork.publish_metrics`); the
    match work the routing table's scans and indexes did is read from
    :meth:`RoutingTable.match_work` at that moment, not copied here.
    """

    subscriptions_received: int = 0
    subscriptions_stored: int = 0
    subscriptions_forwarded: int = 0
    subscriptions_suppressed: int = 0
    subscriptions_resynced: int = 0
    #: Suppressed subscriptions re-forwarded because their cover was withdrawn.
    promotions: int = 0
    covering_checks: int = 0
    covering_check_runs: int = 0
    events_received: int = 0
    events_forwarded: int = 0
    events_delivered_locally: int = 0
    #: Rectangle tests local delivery made: per event reaching the broker,
    #: every local subscription while the local table scans, the candidates
    #: of one probe of its match index once it has one.
    match_tests: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dictionary, one entry per field."""
        return asdict(self)


@dataclass(slots=True)
class LinkState:
    """What a broker knows about forwarding on one neighbour link.

    ``forwarded`` holds the subscriptions sent on the link, by id, in
    forwarding order: the covering check scans it, and the objects are kept
    so the link can be re-synced after the neighbour loses state.
    ``suppressed`` maps each subscription held back to ``(subscription,
    cover)``, the forwarded subscription it was last found covered by, and
    ``dependents`` is the reverse map, cover id -> suppressed ids.  A
    withdrawn cover's dependants are re-checked in their insertion order
    instead of the whole suppressed set.
    """

    forwarded: Dict[Hashable, Subscription] = field(default_factory=dict)
    suppressed: Dict[Hashable, Tuple[Subscription, Hashable]] = field(default_factory=dict)
    dependents: Dict[Hashable, Dict[Hashable, None]] = field(default_factory=dict)


def _drop_dependent(link: LinkState, cover: Hashable, sub_id: Hashable) -> None:
    """Take ``sub_id`` off ``cover``'s dependants on ``link`` (dropping an emptied entry)."""
    dependents = link.dependents.get(cover)
    if dependents is not None:
        dependents.pop(sub_id, None)
        if not dependents:
            del link.dependents[cover]


@dataclass
class Broker:
    """One router of the publish/subscribe overlay.

    Parameters
    ----------
    broker_id:
        Unique identifier in the network.
    schema:
        Message schema shared by the whole network.
    covering:
        Covering kind (:data:`~repro.pubsub.routing_table.COVERING_KINDS`)
        applied independently per outgoing interface: ``"none"`` forwards
        everything, ``"approximate"`` runs one exact scan per link.
    config:
        The one :class:`~repro.index.config.IndexConfig` of this broker
        (defaults to ``IndexConfig()``), read by the interface tables' match
        indexes: ``curve``, ``run_budget`` and ``precision_bits`` (curves
        change run/segment statistics, never semantics).  No covering
        decision reads it.
    profile_cache:
        Optional shared :class:`ProfileCache` (the network passes one cache
        to all its brokers so a subscription is decomposed for matching once
        network-wide); the match indexes read their key runs from it.
    trace:
        Optional shared :class:`~repro.obs.trace.TraceLog` (the network hands
        its brokers the same log it records transport hops into).  When set,
        the broker records one ``route`` span per event it routes and one
        ``covering`` span per forwarding decision; when ``None`` (the
        default) instrumentation costs a single ``is not None`` test.

    A broker sends and delivers through the two callbacks
    :meth:`attach_transport` installs (the network does so when it adds the
    broker).  Until then a send raises ``RuntimeError`` and a local delivery
    is counted but goes nowhere.
    """

    broker_id: Hashable
    schema: AttributeSchema
    covering: str = "approximate"
    profile_cache: Optional[ProfileCache] = None
    trace: Optional[TraceLog] = None
    config: Optional[IndexConfig] = None
    stats: BrokerStats = field(default_factory=BrokerStats)

    def __post_init__(self) -> None:
        check_covering_kind(self.covering)
        if self.config is None:
            self.config = IndexConfig()
        if self.profile_cache is None:
            self.profile_cache = ProfileCache()
        # After the cache: the routing table's match indexes share it.
        self.routing_table = self._fresh_routing_table()
        self._store = SubscriptionStore()
        # One record per neighbour, in connection order.
        self._links: Dict[Hashable, LinkState] = {}
        # Local clients' subscriptions by id: (client ordinal, arrival
        # sequence, client id, subscription).  Clients are numbered in
        # first-registration order and keep their number for good; together
        # with the arrival sequence that is the order local delivery reports
        # in.  Survives reset_routing_state (the clients are still attached).
        self._owned: Dict[Hashable, Tuple[int, int, Hashable, Subscription]] = {}
        self._client_ordinal: Dict[Hashable, int] = {}
        self._arrivals = 0

    # ------------------------------------------------------------------ wiring
    def _fresh_routing_table(self) -> RoutingTable:
        """Build an empty routing table from this broker's configuration.

        Its match indexes read and fill the broker's profile cache.
        """
        return RoutingTable(
            self.schema,
            config=self.config,
            run_cache=self.profile_cache,
        )

    def _fresh_link_state(self, neighbor_id: Hashable) -> None:
        """(Re)initialise the link record of ``neighbor_id``."""
        self._links[neighbor_id] = LinkState()

    def _link(self, neighbor_id: Hashable) -> LinkState:
        """The link record of ``neighbor_id``; ``ValueError`` for a non-neighbour."""
        link = self._links.get(neighbor_id)
        if link is None:
            raise ValueError(f"{neighbor_id!r} is not a neighbour of broker {self.broker_id!r}")
        return link

    def connect(self, neighbor_id: Hashable) -> None:
        """Register a neighbouring broker (called by the network while building the topology)."""
        if neighbor_id not in self._links:
            self._fresh_link_state(neighbor_id)

    def attach_transport(
        self,
        send: Callable[[str, Hashable, Hashable, object], None],
        deliver: Callable[[Event, List[Hashable], List[Hashable]], None],
    ) -> None:
        """Attach the network's callbacks.

        ``send(kind, sender, receiver, payload)`` carries every message to a
        neighbour: a ``"subscription"`` (payload: the subscription), an
        ``"unsubscription"`` (the withdrawn id) or an ``"event"``.
        ``deliver(event, clients, sub_ids)`` hands an event to the local
        clients it reaches, once per visit that delivers at all: ``clients``
        in first-registration order, one entry each, and ``sub_ids[i]`` the
        earliest-registered matching subscription of ``clients[i]``.
        Both shadow the methods of the same name on this instance.
        """
        self._send = send
        self._deliver = deliver

    def _send(self, kind: str, sender: Hashable, receiver: Hashable, payload: object) -> None:
        """Send callback of a broker outside any network."""
        raise RuntimeError(
            f"broker {self.broker_id} has no transport attached; "
            f"add it to a BrokerNetwork before sending {kind} messages"
        )

    def _deliver(self, event: Event, clients: List[Hashable], sub_ids: List[Hashable]) -> None:
        """Delivery callback of a broker outside any network: the deliveries go nowhere."""

    @property
    def neighbors(self) -> List[Hashable]:
        return list(self._links)

    # ----------------------------------------------------------- subscriptions
    def _admit(
        self, items: Sequence[Tuple[Hashable, Subscription]]
    ) -> List[Tuple[Hashable, Subscription]]:
        """Check ``items`` against the live local ids; register and return the new ones.

        A live id is one client's one rectangle — the local table, the
        profile store and every link's forwarded set key on it — so an id
        arriving again under another client or with other ranges raises
        ``ValueError`` before anything is registered, whether the first holder
        is live already or earlier in ``items``; an exact repeat is dropped.
        """
        fresh: Dict[Hashable, Tuple[Hashable, Subscription]] = {}
        for client_id, subscription in items:
            sub_id = subscription.sub_id
            owner = self._owned.get(sub_id)
            holder, held = (
                owner[2:]
                if owner is not None
                else fresh.setdefault(sub_id, (client_id, subscription))
            )
            if holder != client_id or held.ranges != subscription.ranges:
                raise ValueError(
                    f"subscription id {sub_id!r} is already live at broker "
                    f"{self.broker_id!r} for client {holder!r}; withdraw it before "
                    f"reusing the id for another client or other ranges"
                )
        for client_id, subscription in fresh.values():
            ordinal = self._client_ordinal.setdefault(client_id, len(self._client_ordinal))
            self._owned[subscription.sub_id] = (ordinal, self._arrivals, client_id, subscription)
            self._arrivals += 1
        return list(fresh.values())

    def subscribe_local(self, client_id: Hashable, subscription: Subscription) -> None:
        """Register a subscription from a locally attached client and propagate it.

        Repeating a live subscription exactly (same client, id and ranges) is
        a no-op; reusing a live id any other way raises ``ValueError`` with
        nothing changed.
        """
        if self._admit([(client_id, subscription)]):
            self.receive_subscription(LOCAL_INTERFACE, subscription)

    def subscribe_batch(self, items: Sequence[Tuple[Hashable, Subscription]]) -> None:
        """Register a batch of ``(client_id, subscription)`` pairs and propagate them.

        The whole batch is checked against the live ids (and against itself)
        before any of it is registered; then each new subscription takes the
        :meth:`subscribe_local` path in batch order.
        """
        self.receive_subscription_batch(
            LOCAL_INTERFACE, [subscription for _, subscription in self._admit(items)]
        )

    def receive_subscription(self, from_interface: Hashable, subscription: Subscription) -> None:
        """Handle a subscription arriving from ``from_interface`` (neighbour or local client)."""
        self.stats.subscriptions_received += 1
        self._store_subscription(from_interface, subscription)
        for neighbor_id, link in self._links.items():
            if neighbor_id == from_interface:
                continue
            self._consider_forwarding(neighbor_id, link, subscription)

    def receive_subscription_batch(
        self, from_interface: Hashable, subscriptions: Sequence[Subscription]
    ) -> None:
        """Handle subscriptions arriving together on one interface, in order."""
        for subscription in subscriptions:
            self.receive_subscription(from_interface, subscription)

    def _store_subscription(self, from_interface: Hashable, subscription: Subscription) -> None:
        """Store an arrival in the interface table (and, once per id, the store)."""
        table = self.routing_table.table(from_interface)
        already_stored = subscription.sub_id in table
        table.add(subscription)
        if not already_stored:
            self.stats.subscriptions_stored += 1
            self._store.acquire(subscription)

    def _covering_check(self, link: LinkState, ranges: Tuple[Range, ...]) -> Optional[Hashable]:
        """The first subscription forwarded on ``link`` that covers ``ranges``, or ``None``.

        One exact scan in forwarding order; ``covering_check_runs`` counts
        the subscriptions it compared.  Under ``covering="none"`` the
        decision is counted and nothing is compared.
        """
        self.stats.covering_checks += 1
        if self.covering == "none":
            return None
        covered_by, compared = first_covering(
            ((sub_id, sub.ranges) for sub_id, sub in link.forwarded.items()), ranges
        )
        self.stats.covering_check_runs += compared
        return covered_by

    def _record_suppression(
        self, link: LinkState, subscription: Subscription, covered_by: Hashable
    ) -> None:
        """Mark a subscription suppressed on a link and index it under its cover."""
        sub_id = subscription.sub_id
        entry = link.suppressed.get(sub_id)
        if entry is None:
            self.stats.subscriptions_suppressed += 1
        elif entry[1] != covered_by:
            _drop_dependent(link, entry[1], sub_id)
        link.suppressed[sub_id] = (subscription, covered_by)
        link.dependents.setdefault(covered_by, {})[sub_id] = None

    def _clear_suppression(self, link: LinkState, sub_id: Hashable) -> None:
        """Forget a link's suppression entry and its cover bookkeeping."""
        entry = link.suppressed.pop(sub_id, None)
        if entry is not None:
            _drop_dependent(link, entry[1], sub_id)

    def _install_forward(
        self,
        neighbor_id: Hashable,
        link: LinkState,
        subscription: Subscription,
    ) -> None:
        """Add a subscription to a link's forwarded set and send it."""
        link.forwarded[subscription.sub_id] = subscription
        self.stats.subscriptions_forwarded += 1
        self._send("subscription", self.broker_id, neighbor_id, subscription)

    def _consider_forwarding(
        self,
        neighbor_id: Hashable,
        link: LinkState,
        subscription: Subscription,
    ) -> None:
        if subscription.sub_id in link.forwarded:
            # Duplicate arrival of a subscription already forwarded on this
            # link: re-sending it would double-count state downstream and
            # leave a ghost entry behind after a single withdrawal.
            return
        covered_by = self._covering_check(link, subscription.ranges)
        if self.trace is not None:
            self.trace.record(
                Span(
                    trace_id=self.trace.trace_id_for("sub", subscription.sub_id),
                    kind="covering",
                    name=str(subscription.sub_id),
                    broker_id=self.broker_id,
                    parent=neighbor_id,
                    start=self.trace.now(),
                    detail=make_detail(
                        decision="suppressed" if covered_by is not None else "forwarded",
                        covered_by=str(covered_by) if covered_by is not None else "",
                    ),
                )
            )
        if covered_by is not None:
            self._record_suppression(link, subscription, covered_by)
            return
        # A suppressed subscription's cover stays forwarded until its
        # withdrawal re-checks it, so a duplicate arrival is re-suppressed
        # above.  Should one be forwarded all the same, the pending entry must
        # go, or a later withdrawal would take the suppressed early-exit and
        # leave the subscription forwarded for good.
        self._clear_suppression(link, subscription.sub_id)
        self._install_forward(neighbor_id, link, subscription)

    def has_forwarded(self, neighbor_id: Hashable, sub_id: Hashable) -> bool:
        """Return True when ``sub_id`` was forwarded to ``neighbor_id`` (test helper)."""
        link = self._links.get(neighbor_id)
        return link is not None and sub_id in link.forwarded

    # ------------------------------------------------------------------- churn
    def reset_routing_state(self) -> None:
        """Forget all learnt routing and covering state (crash recovery).

        Locally attached clients, neighbour links and cumulative stats
        survive; everything learnt from the network — interface tables,
        forwarded/suppressed bookkeeping per link — is
        rebuilt from scratch because messages lost while the broker was down
        make the old state untrustworthy.  The profile cache is kept: what it
        memoises is pure geometry, valid whatever was lost.
        """
        self.routing_table = self._fresh_routing_table()
        self._store.clear()
        for neighbor_id in self._links:
            self._fresh_link_state(neighbor_id)

    def flush_interface(self, neighbor_id: Hashable) -> int:
        """Withdraw everything previously forwarded on this link (pre-reset).

        Used by crash recovery as the first half of flush-and-refill: the
        recovering broker cannot know which of its pre-crash forwards are
        still valid (an unsubscription may have been dropped while it was
        down), so it retracts them all; the re-announcement and neighbour
        resyncs that follow re-add every live one.  Per-link FIFO ordering in
        the transport makes the retract-then-re-add sequence converge.  Local
        state is left untouched — the caller resets it wholesale next.
        Returns the number of withdrawals sent.
        """
        forwarded = self._link(neighbor_id).forwarded
        for sub_id in forwarded:
            self._send("unsubscription", self.broker_id, neighbor_id, sub_id)
        return len(forwarded)

    def resync_interface(self, neighbor_id: Hashable) -> int:
        """Replay every subscription forwarded on this link (neighbour lost state).

        Only the *forwarded* set is replayed: a subscription this broker
        suppressed on the link is covered by one it did forward, so the
        neighbour's rebuilt routing state still attracts every event the
        suppressed subscriber needs — the covering optimisation carries over
        to recovery traffic.  Returns the number of subscriptions re-sent.
        """
        forwarded = self._link(neighbor_id).forwarded
        for subscription in forwarded.values():
            self._send("subscription", self.broker_id, neighbor_id, subscription)
        self.stats.subscriptions_resynced += len(forwarded)
        return len(forwarded)

    def announce_interface(self, neighbor_id: Hashable) -> int:
        """Run the forwarding decision toward a newly attached neighbour.

        Every subscription currently known (from any other interface,
        including local clients) is considered for forwarding on the new link
        with the usual covering check, so a broker joining mid-run attracts
        the events its side of the overlay needs.  Returns the number of
        subscriptions considered.
        """
        link = self._link(neighbor_id)
        seen: Set[Hashable] = set()
        for interface_id in list(self.routing_table.interfaces()):
            if interface_id == neighbor_id:
                continue
            for subscription in self.routing_table.table(interface_id).subscriptions():
                if subscription.sub_id in seen:
                    continue
                seen.add(subscription.sub_id)
                self._consider_forwarding(neighbor_id, link, subscription)
        return len(seen)

    # --------------------------------------------------------- unsubscriptions
    def unsubscribe_local(self, client_id: Hashable, sub_id: Hashable) -> bool:
        """Remove a locally registered subscription and propagate its withdrawal.

        Returns True when the subscription was found.  Withdrawal is the
        delicate part of covering-based propagation: if the withdrawn
        subscription had been covering others on some link, those others must
        now be (re)forwarded there or downstream brokers would stop routing
        the events they still need.
        """
        if not self._disown(client_id, sub_id):
            return False
        self.receive_unsubscription(LOCAL_INTERFACE, sub_id)
        return True

    def _disown(self, client_id: Hashable, sub_id: Hashable) -> bool:
        """Forget ``client_id``'s subscription ``sub_id``; False when it holds none."""
        owner = self._owned.get(sub_id)
        if owner is None or owner[2] != client_id:
            return False
        del self._owned[sub_id]
        return True

    def unsubscribe_batch(self, items: Sequence[Tuple[Hashable, Hashable]]) -> List[bool]:
        """Withdraw a batch of ``(client_id, sub_id)`` pairs, in order.

        The same as calling :meth:`unsubscribe_local` per pair.  Returns one
        found-flag per pair.
        """
        removed_flags = [self._disown(client_id, sub_id) for client_id, sub_id in items]
        self.receive_unsubscription_batch(
            LOCAL_INTERFACE,
            [sub_id for (_, sub_id), removed in zip(items, removed_flags) if removed],
        )
        return removed_flags

    def receive_unsubscription(self, from_interface: Hashable, sub_id: Hashable) -> None:
        """Handle the withdrawal of ``sub_id`` announced on ``from_interface``."""
        removed = self.routing_table.table(from_interface).remove(sub_id)
        for neighbor_id, link in self._links.items():
            if neighbor_id == from_interface:
                continue
            self._withdraw_from_neighbor(neighbor_id, link, sub_id)
        if removed:
            self._store.release(sub_id)

    def receive_unsubscription_batch(
        self, from_interface: Hashable, sub_ids: Sequence[Hashable]
    ) -> None:
        """Handle withdrawals arriving together on one interface, in order."""
        for sub_id in sub_ids:
            self.receive_unsubscription(from_interface, sub_id)

    def _withdraw_from_neighbor(
        self, neighbor_id: Hashable, link: LinkState, sub_id: Hashable
    ) -> None:
        suppressed = link.suppressed
        if sub_id in suppressed:
            # Never forwarded there in the first place: just forget it.
            self._clear_suppression(link, sub_id)
            return
        if link.forwarded.pop(sub_id, None) is None:
            return
        self._send("unsubscription", self.broker_id, neighbor_id, sub_id)
        # Subscriptions previously suppressed on this link may have lost their
        # cover; re-run the forwarding decision so downstream brokers keep
        # receiving the events those subscribers still need.  Only the
        # withdrawn subscription's recorded dependants are re-checked — any
        # other suppressed subscription still has its recorded cover in the
        # forwarded set, so its suppression stays sound.
        for pending_id in link.dependents.pop(sub_id, None) or ():
            pending = suppressed[pending_id][0]
            covered_by = self._covering_check(link, pending.ranges)
            if covered_by is not None:
                # Still covered — by a different survivor; re-home it so the
                # dependants map stays exact.
                self._record_suppression(link, pending, covered_by)
                continue
            self._clear_suppression(link, pending_id)
            self._install_forward(neighbor_id, link, pending)
            self.stats.promotions += 1

    # ------------------------------------------------------------------ events
    def publish_local(self, event: Event) -> None:
        """Inject an event published by a locally attached client."""
        self.receive_event(LOCAL_INTERFACE, event)

    def publish_batch(self, events: Sequence[Event]) -> None:
        """Inject a batch of locally published events.

        The events' curve keys are computed in one pass (sharing
        per-coordinate spreading work across the batch) and threaded through
        routing, so each key is built once instead of once per interface
        probe.
        """
        events = list(events)
        for event, key in zip(events, self.routing_table.event_keys(events)):
            self.receive_event(LOCAL_INTERFACE, event, key=key)

    def receive_event(
        self, from_interface: Hashable, event: Event, key: Optional[int] = None
    ) -> None:
        """Deliver an event locally and forward it along matching interfaces.

        ``key`` optionally carries the event's precomputed SFC key (from
        :meth:`publish_batch`); when absent it is read off the event — or
        computed, once per ``Event`` object — and shared by the local-delivery
        probe and every neighbour probe.
        """
        self.stats.events_received += 1
        if key is None:
            key = self.routing_table.event_key(event)
        delivered = self._deliver_locally(event, key)
        # Neighbour tables only need "does anything match?"; the local-client
        # table was just asked the fuller question by _deliver_locally.
        forwarded_to: List[Hashable] = []
        for interface_id in self.routing_table.matching_interfaces(
            event, exclude=from_interface, key=key, among=self._links
        ):
            self.stats.events_forwarded += 1
            forwarded_to.append(interface_id)
            self._send("event", self.broker_id, interface_id, event)
        if self.trace is not None:
            self.trace.record(
                Span(
                    trace_id=self.trace.trace_id_for("evt", event.event_id),
                    kind="route",
                    name=str(event.event_id),
                    broker_id=self.broker_id,
                    parent=from_interface,
                    start=self.trace.now(),
                    detail=make_detail(
                        delivered=delivered,
                        forwarded_to=tuple(str(i) for i in forwarded_to),
                    ),
                )
            )

    def _deliver_locally(self, event: Event, key: Optional[int]) -> int:
        """Hand ``event`` to every local client with a matching subscription.

        One probe of the local-client table (a scan while the table is small,
        its match index after) finds the matching ids; the owner map turns
        them into deliveries: one per client per event, carrying the client's
        earliest-registered matching subscription, clients in
        first-registration order, handed over in one ``deliver`` call.  A
        table entry no client owns (one that arrived through
        :meth:`receive_subscription` alone) delivers nothing.
        """
        # .get, not .table(): a broker without local clients keeps no local table.
        table = self.routing_table.interface_tables().get(LOCAL_INTERFACE)
        if table is None:
            return 0
        matched, tests = table.matching_ids(event, key)
        self.stats.match_tests += tests
        if not matched:
            return 0
        owned = self._owned
        # (ordinal, arrival) is unique, so the sort never looks further.
        hits = sorted([owned[sub_id] for sub_id in matched if sub_id in owned])
        clients: List[Hashable] = []
        sub_ids: List[Hashable] = []
        last_ordinal = -1
        for ordinal, _, client_id, subscription in hits:
            if ordinal == last_ordinal:
                continue  # one delivery per client per event
            last_ordinal = ordinal
            clients.append(client_id)
            sub_ids.append(subscription.sub_id)
        if not clients:
            return 0
        self._deliver(event, clients, sub_ids)
        delivered = len(clients)
        self.stats.events_delivered_locally += delivered
        return delivered

    # -------------------------------------------------------------- accounting
    def routing_state(self) -> Dict[str, Dict[str, List[str]]]:
        """Normalised dump of this broker's learnt routing/covering state.

        Interface and subscription identifiers are stringified and sorted so
        dumps from two runs (different transports, batch vs sequential APIs)
        compare with ``==`` regardless of dict iteration history.  Used by
        the equivalence tests and the benchmark smoke check.
        """
        tables = {
            str(interface_id): sorted(
                str(sub.sub_id)
                for sub in self.routing_table.table(interface_id).subscriptions()
            )
            for interface_id in list(self.routing_table.interfaces())
        }
        # Empty entries are dropped: an interface table (or link set) that was
        # created and later drained must compare equal to one never touched.
        return {
            "tables": {iface: subs for iface, subs in tables.items() if subs},
            "forwarded": {
                str(neighbor_id): sorted(str(sub_id) for sub_id in link.forwarded)
                for neighbor_id, link in self._links.items()
                if link.forwarded
            },
            "suppressed": {
                str(neighbor_id): sorted(str(sub_id) for sub_id in link.suppressed)
                for neighbor_id, link in self._links.items()
                if link.suppressed
            },
        }

    def routing_table_size(self) -> int:
        """Total subscription entries stored in this broker's routing table."""
        return self.routing_table.total_entries()

    def local_subscriptions(self) -> List[Tuple[Hashable, Subscription]]:
        """Return ``(client_id, subscription)`` pairs registered locally."""
        return [
            (client_id, subscription)
            for _, _, client_id, subscription in sorted(self._owned.values())
        ]
