"""A content-based publish/subscribe broker with covering-based subscription propagation.

Each broker maintains:

* a :class:`RoutingTable` — per-interface subscription sets used to decide
  where events are forwarded (reverse-path forwarding on the subscription
  flow);
* one :class:`CoveringStrategy` per *outgoing* interface — the set of
  subscriptions already forwarded out of that interface, indexed so that
  "has something covering this already been forwarded?" is answerable
  quickly.  The strategy is the pluggable piece: none / exact linear scan /
  ε-approximate SFC / probabilistic;
* an owner map for the subscriptions of its own clients.  The routing table
  holds them under :data:`LOCAL_INTERFACE` like any other interface's, and
  local delivery is one probe of that table followed by a lookup of who owns
  each matching id — the same point query (Fact 2.1) that decides forwarding.

Subscription propagation follows the standard covering optimisation: when a
subscription arrives on interface ``I`` it is stored in the table for ``I``
and considered for forwarding on every other interface ``J``.  It is actually
forwarded on ``J`` only when no previously forwarded subscription covers it
(according to the broker's covering strategy).  Because the SFC approximate
strategy is *sound* — it only ever reports true covers — suppression never
breaks delivery; it can merely happen less often than with exact covering.

The broker is a synchronous simulation object: the :class:`BrokerNetwork`
drives it by calling :meth:`receive_subscription` and :meth:`receive_event`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..core.covering import CoveringProfiler
from ..index.config import IndexConfig
from ..obs.profiler import profiled
from ..obs.trace import Span, TraceLog, make_detail
from ..sim.transport import recent_window
from .routing_table import (
    CoveringStrategy,
    RoutingTable,
    check_covering_kind,
    make_covering_strategy,
)
from .schema import AttributeSchema
from .stats import BrokerStats
from .subscription import Event, Subscription
from .subscription_store import ProfileCache, SubscriptionProfile, SubscriptionStore

__all__ = ["Broker", "ForwardDecision", "LOCAL_INTERFACE"]

#: Pseudo-interface identifier for subscriptions registered by local clients.
LOCAL_INTERFACE = "__local__"


@dataclass(frozen=True)
class ForwardDecision:
    """Record of one propagation decision (useful for tests and traces)."""

    subscription_id: Hashable
    interface_id: Hashable
    forwarded: bool
    covered_by: Optional[Hashable]


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
        Covering strategy kind (:data:`~repro.pubsub.routing_table.COVERING_KINDS`)
        applied independently per outgoing interface.
    samples, seed:
        Sample count of the ``"probabilistic"`` strategy, and the seed of
        every randomised component (that strategy, skip-list backends).
    matching:
        Event-matching implementation per interface table: ``"linear"`` scans
        stored subscriptions, ``"sfc"`` routes events through the SFC match
        index (identical answers, indexed cost).
    config:
        The one :class:`~repro.index.config.IndexConfig` of this broker
        (defaults to ``IndexConfig()``): ``curve`` keys both the ``"sfc"``
        match index and the ``"approximate"`` covering strategy (curves
        change run/segment statistics, never semantics), ``epsilon`` and
        ``cube_budget`` shape that strategy's checks, ``backend`` /
        ``shards`` / ``run_budget`` / ``precision_bits`` the match index
        (the covering strategy uses the ordered-map backend corresponding to
        ``backend``; ``"sharded"`` maps to the flat store).
    profile_cache:
        Optional shared :class:`ProfileCache` (the network passes one cache
        to all its brokers so a subscription is profiled, and decomposed for
        matching, once network-wide).  Each stored subscription's covering
        geometry — validated ranges, dominance point, probe plan — is read
        from it once into the broker's :class:`SubscriptionStore` and shared
        by every link's covering checks and promotion re-checks; the match
        indexes read their key runs from the same cache.
    trace:
        Optional shared :class:`~repro.obs.trace.TraceLog` (the network hands
        its brokers the same log it records transport hops into).  When set,
        the broker records one ``route`` span per event it routes and one
        ``covering`` span per forwarding decision; when ``None`` (the
        default) instrumentation costs a single ``is not None`` test.
    """

    broker_id: Hashable
    schema: AttributeSchema
    covering: str = "approximate"
    samples: int = 8
    seed: Optional[int] = None
    matching: str = "linear"
    profile_cache: Optional[ProfileCache] = None
    trace: Optional[TraceLog] = None
    config: Optional[IndexConfig] = None
    stats: BrokerStats = field(default_factory=BrokerStats)

    def __post_init__(self) -> None:
        check_covering_kind(self.covering)
        if self.config is None:
            self.config = IndexConfig()
        if self.profile_cache is None:
            profiler = (
                CoveringProfiler(
                    self.schema.num_attributes,
                    self.schema.order,
                    config=self.config,
                )
                if self.covering == "approximate"
                else None
            )
            self.profile_cache = ProfileCache(profiler)
        # After the cache: the routing table's match indexes share it.
        self.routing_table = self._fresh_routing_table()
        self._store = SubscriptionStore(self.profile_cache)
        self._neighbors: List[Hashable] = []
        self._forwarded: Dict[Hashable, CoveringStrategy] = {}
        # Per neighbour: the subscriptions actually sent on the link, keyed by
        # id.  The objects (not just ids) are kept so a link can be re-synced
        # after the neighbour loses state (crash recovery).
        self._forwarded_ids: Dict[Hashable, Dict[Hashable, Subscription]] = {}
        self._suppressed: Dict[Hashable, Dict[Hashable, Subscription]] = {}
        # Per neighbour: which forwarded subscription each suppressed one was
        # last found covered by, plus the reverse map.  Promotion pops the
        # withdrawn cover's dependants instead of re-checking the whole
        # suppressed set.  Inner dicts preserve
        # insertion order so promotion re-checks run deterministically.
        self._cover_of: Dict[Hashable, Dict[Hashable, Hashable]] = {}
        self._dependents: Dict[Hashable, Dict[Hashable, Dict[Hashable, None]]] = {}
        # Local clients' subscriptions by id: (client ordinal, arrival
        # sequence, client id, subscription).  Clients are numbered in
        # first-registration order and keep their number for good; together
        # with the arrival sequence that is the order local delivery reports
        # in.  Survives reset_routing_state (the clients are still attached).
        self._owned: Dict[Hashable, Tuple[int, int, Hashable, Subscription]] = {}
        self._client_ordinal: Dict[Hashable, int] = {}
        self._arrivals = 0
        # The most recent forwarding decisions (RETENTION of them).
        self._decision_log: Deque[ForwardDecision] = recent_window()
        self._in_batch = False
        # Set by the network: called as send_subscription(from, to, subscription)
        self._send_subscription: Optional[Callable[[Hashable, Hashable, Subscription], None]] = None
        self._send_unsubscription: Optional[Callable[[Hashable, Hashable, Hashable], None]] = None
        self._send_event: Optional[Callable[[Hashable, Hashable, Event], None]] = None
        self._deliver: Optional[Callable[[Hashable, Hashable, Event], None]] = None

    # ------------------------------------------------------------------ wiring
    def _fresh_routing_table(self) -> RoutingTable:
        """Build an empty routing table from this broker's configuration.

        Its match indexes read and fill the broker's profile cache.
        """
        return RoutingTable(
            schema=self.schema,
            matching=self.matching,
            seed=self.seed,
            config=self.config,
            run_cache=self.profile_cache,
        )

    def _fresh_link_state(self, neighbor_id: Hashable) -> None:
        """(Re)initialise the per-link covering strategy and bookkeeping."""
        self._forwarded[neighbor_id] = make_covering_strategy(
            self.covering,
            self.schema,
            samples=self.samples,
            seed=self.seed,
            config=self.config,
        )
        self._forwarded_ids[neighbor_id] = {}
        self._suppressed[neighbor_id] = {}
        self._cover_of[neighbor_id] = {}
        self._dependents[neighbor_id] = {}

    def connect(self, neighbor_id: Hashable) -> None:
        """Register a neighbouring broker (called by the network while building the topology)."""
        if neighbor_id not in self._neighbors:
            self._neighbors.append(neighbor_id)
            self._fresh_link_state(neighbor_id)

    def attach_transport(
        self,
        send_subscription: Callable[[Hashable, Hashable, Subscription], None],
        send_event: Callable[[Hashable, Hashable, Event], None],
        deliver: Callable[[Hashable, Hashable, Event], None],
        send_unsubscription: Optional[Callable[[Hashable, Hashable, Hashable], None]] = None,
    ) -> None:
        """Attach the network's transport callbacks."""
        self._send_subscription = send_subscription
        self._send_unsubscription = send_unsubscription
        self._send_event = send_event
        self._deliver = deliver

    @property
    def neighbors(self) -> List[Hashable]:
        return list(self._neighbors)

    @property
    def decision_log(self) -> List[ForwardDecision]:
        return list(self._decision_log)

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

        Equivalent to calling :meth:`subscribe_local` per pair — per-link
        processing order, forwarding decisions and message sequences are
        identical — but the per-subscription profile work is amortised over
        the batch and the per-link covering state stays hot while the batch
        sweeps each neighbour, and the whole batch is checked against the
        live ids (and against itself) before any of it is registered.
        """
        self.receive_subscription_batch(
            LOCAL_INTERFACE, [subscription for _, subscription in self._admit(items)]
        )

    def receive_subscription(self, from_interface: Hashable, subscription: Subscription) -> None:
        """Handle a subscription arriving from ``from_interface`` (neighbour or local client)."""
        self.stats.subscriptions_received += 1
        profile = self._store_subscription(from_interface, subscription)
        for neighbor_id in self._neighbors:
            if neighbor_id == from_interface:
                continue
            self._consider_forwarding(neighbor_id, subscription, profile)

    def receive_subscription_batch(
        self, from_interface: Hashable, subscriptions: Sequence[Subscription]
    ) -> None:
        """Handle a batch of subscriptions arriving together on one interface.

        All subscriptions are stored (and profiled) first, then each outgoing
        link is swept once.  Per link the subscriptions are considered in
        batch order, so the covering decisions — including intra-batch
        suppression of later subscriptions by earlier ones — are exactly
        those of sequential arrival.
        """
        self._in_batch = True
        try:
            entries: List[Tuple[Subscription, SubscriptionProfile]] = []
            for subscription in subscriptions:
                self.stats.subscriptions_received += 1
                entries.append(
                    (subscription, self._store_subscription(from_interface, subscription))
                )
            for neighbor_id in self._neighbors:
                if neighbor_id == from_interface:
                    continue
                for subscription, profile in entries:
                    self._consider_forwarding(neighbor_id, subscription, profile)
        finally:
            self._in_batch = False

    def _store_subscription(
        self, from_interface: Hashable, subscription: Subscription
    ) -> SubscriptionProfile:
        """Store an arrival in the interface table; return its shared profile.

        The store mirrors the tables (acquired here, released on removal), so
        every subscription a table or a link's suppressed set holds has a
        profile.
        """
        table = self.routing_table.table(from_interface)
        already_stored = subscription.sub_id in table
        table.add(subscription)
        if already_stored:
            return self._store.get(subscription.sub_id)
        self.stats.subscriptions_stored += 1
        return self._store.acquire(subscription)

    @profiled("broker.covering_check")
    def _covering_check(
        self,
        strategy: CoveringStrategy,
        profile: SubscriptionProfile,
    ) -> Optional[Hashable]:
        """One covering query against a link's forwarded set, with accounting."""
        self.stats.covering_checks += 1
        if self._in_batch:
            self.stats.batch_covering_checks += 1
        before = strategy.work_units()
        covered_by = strategy.find_covering_profile(profile)
        self.stats.covering_check_runs += strategy.work_units() - before
        return covered_by

    def _record_suppression(
        self, neighbor_id: Hashable, subscription: Subscription, covered_by: Hashable
    ) -> None:
        """Mark a subscription suppressed on a link and index it under its cover."""
        sub_id = subscription.sub_id
        suppressed = self._suppressed[neighbor_id]
        if sub_id not in suppressed:
            self.stats.subscriptions_suppressed += 1
        else:
            previous = self._cover_of[neighbor_id].get(sub_id)
            if previous is not None and previous != covered_by:
                dependents = self._dependents[neighbor_id].get(previous)
                if dependents is not None:
                    dependents.pop(sub_id, None)
                    if not dependents:
                        del self._dependents[neighbor_id][previous]
        suppressed[sub_id] = subscription
        self._cover_of[neighbor_id][sub_id] = covered_by
        self._dependents[neighbor_id].setdefault(covered_by, {})[sub_id] = None

    def _clear_suppression(self, neighbor_id: Hashable, sub_id: Hashable) -> None:
        """Forget a link's suppression entry and its cover bookkeeping."""
        self._suppressed[neighbor_id].pop(sub_id, None)
        cover = self._cover_of[neighbor_id].pop(sub_id, None)
        if cover is not None:
            dependents = self._dependents[neighbor_id].get(cover)
            if dependents is not None:
                dependents.pop(sub_id, None)
                if not dependents:
                    del self._dependents[neighbor_id][cover]

    def _install_forward(
        self,
        neighbor_id: Hashable,
        strategy: CoveringStrategy,
        subscription: Subscription,
        profile: SubscriptionProfile,
    ) -> None:
        """Add a subscription to a link's forwarded set and send it."""
        strategy.add_profile(subscription.sub_id, profile)
        self._forwarded_ids[neighbor_id][subscription.sub_id] = subscription
        self.stats.subscriptions_forwarded += 1
        self._decision_log.append(ForwardDecision(subscription.sub_id, neighbor_id, True, None))
        if self._send_subscription is None:
            raise RuntimeError(
                f"broker {self.broker_id} has no transport attached; "
                "add it to a BrokerNetwork before sending subscriptions"
            )
        self._send_subscription(self.broker_id, neighbor_id, subscription)

    def _consider_forwarding(
        self,
        neighbor_id: Hashable,
        subscription: Subscription,
        profile: SubscriptionProfile,
    ) -> None:
        if subscription.sub_id in self._forwarded_ids[neighbor_id]:
            # Duplicate arrival of a subscription already forwarded on this
            # link: re-adding it to the strategy and re-sending it would
            # double-count state downstream and leave a ghost entry behind
            # after a single withdrawal.
            return
        strategy = self._forwarded[neighbor_id]
        covered_by = self._covering_check(strategy, profile)
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
            self._record_suppression(neighbor_id, subscription, covered_by)
            self._decision_log.append(
                ForwardDecision(subscription.sub_id, neighbor_id, False, covered_by)
            )
            return
        # A duplicate arrival of a previously *suppressed* subscription can
        # reach this point when the (approximate) covering check misses the
        # cover it found the first time.  Forwarding is then correct, but the
        # pending entry must go, or a later withdrawal would take the
        # suppressed early-exit and leave a ghost entry in the strategy.
        self._clear_suppression(neighbor_id, subscription.sub_id)
        self._install_forward(neighbor_id, strategy, subscription, profile)

    def has_forwarded(self, neighbor_id: Hashable, sub_id: Hashable) -> bool:
        """Return True when ``sub_id`` was forwarded to ``neighbor_id`` (test helper)."""
        return sub_id in self._forwarded_ids.get(neighbor_id, {})

    # ------------------------------------------------------------------- churn
    def reset_routing_state(self) -> None:
        """Forget all learnt routing and covering state (crash recovery).

        Locally attached clients, neighbour links and cumulative stats
        survive; everything learnt from the network — interface tables,
        per-link covering strategies, forwarded/suppressed bookkeeping — is
        rebuilt from scratch because messages lost while the broker was down
        make the old state untrustworthy.  The profile cache is kept: what it
        memoises is pure geometry, valid whatever was lost.
        """
        self.routing_table = self._fresh_routing_table()
        self._store.clear()
        for neighbor_id in self._neighbors:
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
        if neighbor_id not in self._forwarded_ids:
            raise ValueError(f"{neighbor_id!r} is not a neighbour of broker {self.broker_id!r}")
        if self._send_unsubscription is None:
            return 0
        flushed = 0
        for sub_id in self._forwarded_ids[neighbor_id]:
            self._send_unsubscription(self.broker_id, neighbor_id, sub_id)
            flushed += 1
        return flushed

    def resync_interface(self, neighbor_id: Hashable) -> int:
        """Replay every subscription forwarded on this link (neighbour lost state).

        Only the *forwarded* set is replayed: a subscription this broker
        suppressed on the link is covered by one it did forward, so the
        neighbour's rebuilt routing state still attracts every event the
        suppressed subscriber needs — the covering optimisation carries over
        to recovery traffic.  Returns the number of subscriptions re-sent.
        """
        if neighbor_id not in self._forwarded_ids:
            raise ValueError(f"{neighbor_id!r} is not a neighbour of broker {self.broker_id!r}")
        if self._send_subscription is None:
            raise RuntimeError(
                f"broker {self.broker_id} has no transport attached; "
                "add it to a BrokerNetwork before resyncing"
            )
        resent = 0
        for subscription in self._forwarded_ids[neighbor_id].values():
            self._send_subscription(self.broker_id, neighbor_id, subscription)
            resent += 1
        self.stats.subscriptions_resynced += resent
        return resent

    def announce_interface(self, neighbor_id: Hashable) -> int:
        """Run the forwarding decision toward a newly attached neighbour.

        Every subscription currently known (from any other interface,
        including local clients) is considered for forwarding on the new link
        with the usual covering check, so a broker joining mid-run attracts
        the events its side of the overlay needs.  Returns the number of
        subscriptions considered.
        """
        if neighbor_id not in self._forwarded_ids:
            raise ValueError(f"{neighbor_id!r} is not a neighbour of broker {self.broker_id!r}")
        seen: Set[Hashable] = set()
        for interface_id in list(self.routing_table.interfaces()):
            if interface_id == neighbor_id:
                continue
            for subscription in self.routing_table.table(interface_id).subscriptions():
                if subscription.sub_id in seen:
                    continue
                seen.add(subscription.sub_id)
                self._consider_forwarding(
                    neighbor_id, subscription, self._store.get(subscription.sub_id)
                )
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
        """Withdraw a batch of ``(client_id, sub_id)`` pairs in one pass.

        Per-link withdrawal order and promotion decisions are identical to
        calling :meth:`unsubscribe_local` per pair; the per-link sweep keeps
        each link's covering state hot and the promotion engine amortises its
        profile lookups.  Returns one found-flag per pair.
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
        for neighbor_id in self._neighbors:
            if neighbor_id == from_interface:
                continue
            self._withdraw_from_neighbor(neighbor_id, sub_id)
        if removed:
            self._store.release(sub_id)

    def receive_unsubscription_batch(
        self, from_interface: Hashable, sub_ids: Sequence[Hashable]
    ) -> None:
        """Handle a batch of withdrawals arriving together on one interface.

        All ids leave the interface table first, then each outgoing link is
        swept once; per link the withdrawals (and their promotions) run in
        batch order, matching sequential arrival exactly.
        """
        self._in_batch = True
        try:
            table = self.routing_table.table(from_interface)
            removed = [sub_id for sub_id in sub_ids if table.remove(sub_id)]
            for neighbor_id in self._neighbors:
                if neighbor_id == from_interface:
                    continue
                for sub_id in sub_ids:
                    self._withdraw_from_neighbor(neighbor_id, sub_id)
            for sub_id in removed:
                self._store.release(sub_id)
        finally:
            self._in_batch = False

    def _withdraw_from_neighbor(self, neighbor_id: Hashable, sub_id: Hashable) -> None:
        suppressed = self._suppressed[neighbor_id]
        if sub_id in suppressed:
            # Never forwarded there in the first place: just forget it.
            self._clear_suppression(neighbor_id, sub_id)
            return
        if sub_id not in self._forwarded_ids[neighbor_id]:
            return
        strategy = self._forwarded[neighbor_id]
        strategy.remove(sub_id)
        self._forwarded_ids[neighbor_id].pop(sub_id, None)
        if self._send_unsubscription is not None:
            self._send_unsubscription(self.broker_id, neighbor_id, sub_id)
        # Subscriptions previously suppressed on this link may have lost their
        # cover; re-run the forwarding decision so downstream brokers keep
        # receiving the events those subscribers still need.  Only the
        # withdrawn subscription's recorded dependants are re-checked — any
        # other suppressed subscription still has its recorded cover in the
        # forwarded set, so its suppression stays sound.
        for pending_id in self._dependents[neighbor_id].pop(sub_id, None) or ():
            pending = suppressed.get(pending_id)
            if pending is None:
                continue
            profile = self._store.get(pending_id)
            covered_by = self._covering_check(strategy, profile)
            if covered_by is not None:
                # Still covered — by a different survivor; re-home it so the
                # dependants map stays exact.
                self._record_suppression(neighbor_id, pending, covered_by)
                continue
            self._clear_suppression(neighbor_id, pending_id)
            self._install_forward(neighbor_id, strategy, pending, profile)
            self.stats.promotions += 1

    # ------------------------------------------------------------------ events
    def publish_local(self, event: Event) -> None:
        """Inject an event published by a locally attached client."""
        self.receive_event(LOCAL_INTERFACE, event)

    def publish_batch(self, events: Sequence[Event]) -> None:
        """Inject a batch of locally published events.

        Under SFC matching the events' curve keys are computed in one pass
        (sharing per-coordinate spreading work across the batch) and threaded
        through routing, so each key is built once instead of once per
        interface probe.
        """
        for _ in self.publish_batch_iter(events):
            pass

    def publish_batch_iter(self, events: Sequence[Event]):
        """Like :meth:`publish_batch`, yielding each event after it is routed.

        Lets callers (the network's delivery-tracking wrapper) observe
        per-event boundaries while sharing the amortised key computation.
        """
        events = list(events)
        keys = self.routing_table.event_keys(events)
        for event, key in zip(events, keys):
            self.receive_event(LOCAL_INTERFACE, event, key=key)
            yield event

    def receive_event(
        self, from_interface: Hashable, event: Event, key: Optional[int] = None
    ) -> None:
        """Deliver an event locally and forward it along matching interfaces.

        ``key`` optionally carries the event's precomputed SFC key (from
        :meth:`publish_batch`); when absent and SFC matching is active it is
        read off the event — or computed, once per ``Event`` object — and
        shared by the local-delivery probe and every neighbour probe.
        """
        self.stats.events_received += 1
        if key is None:
            key = self.routing_table.event_key(event)
        delivered = self._deliver_locally(event, key)
        # Neighbour tables only need "does anything match?"; the local-client
        # table was just asked the fuller question by _deliver_locally.
        forwarded_to: List[Hashable] = []
        for interface_id in self.routing_table.matching_interfaces(
            event, exclude=from_interface, key=key, among=self._neighbors
        ):
            self.stats.events_forwarded += 1
            if self._send_event is None:
                raise RuntimeError(
                    f"broker {self.broker_id} has no transport attached; "
                    "add it to a BrokerNetwork before publishing events"
                )
            forwarded_to.append(interface_id)
            self._send_event(self.broker_id, interface_id, event)
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

    def sync_match_stats(self) -> None:
        """Pull the match-index work counters into :attr:`stats`.

        The counters are running totals held by the per-interface indexes;
        aggregating them per event would cost an interface sweep on the hot
        path, so callers (stats collection, tests) sync on read instead.
        """
        (
            self.stats.match_index_lookups,
            self.stats.match_index_candidates,
            self.stats.match_index_false_positives,
        ) = self.routing_table.match_work()

    def _deliver_locally(self, event: Event, key: Optional[int]) -> int:
        """Hand ``event`` to every local client with a matching subscription.

        One probe of the local-client table (its match index under SFC
        matching) finds the matching ids; the owner map turns them into
        deliveries: one per client per event, carrying the client's
        earliest-registered matching subscription, clients in
        first-registration order.  A table entry no client owns (one that
        arrived through :meth:`receive_subscription` alone) delivers nothing.
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
        delivered = 0
        last_ordinal = -1
        for ordinal, _, client_id, subscription in hits:
            if ordinal == last_ordinal:
                continue  # one delivery per client per event
            last_ordinal = ordinal
            delivered += 1
            if self._deliver is not None:
                self._deliver(client_id, subscription.sub_id, event)
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
                str(neighbor_id): sorted(str(sub_id) for sub_id in forwarded)
                for neighbor_id, forwarded in self._forwarded_ids.items()
                if forwarded
            },
            "suppressed": {
                str(neighbor_id): sorted(str(sub_id) for sub_id in suppressed)
                for neighbor_id, suppressed in self._suppressed.items()
                if suppressed
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
