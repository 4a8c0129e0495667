"""Per-interface routing tables, and the covering kinds a broker link can run.

A broker keeps, for every interface (a neighbouring broker or a local client),
the set of subscriptions it has learnt through that interface.  Event
forwarding consults the table: an event is sent out of an interface exactly
when some subscription stored for that interface matches it.

Covering enters when deciding whether an incoming subscription needs to be
*forwarded* to a neighbour at all: if a subscription already forwarded to that
neighbour covers the new one, forwarding is redundant.  The broker decides
that on each link itself (:meth:`~repro.pubsub.broker.Broker._covering_check`)
by one exact scan of the packed boxes of the subscriptions it has forwarded
there (:attr:`~repro.pubsub.broker.LinkState.boxes`);
:data:`COVERING_KINDS` names whether it does.  ``none`` always forwards;
``approximate`` runs the scan, which meets the paper's ε-approximate
contract for every ε.  A reported cover really covers, so suppression never
costs a delivery.

A table answers "does anything here match?" by scanning its subscriptions
while it holds at most :attr:`InterfaceTable.SCAN_LIMIT` of them, and
through a :class:`~repro.pubsub.match_index.MatchIndex` after (see
:class:`InterfaceTable` for where the limit comes from).  Only an indexed
table reads an event's Z key (:attr:`~repro.pubsub.subscription.Event.key`,
derived on first read and kept on the ``Event`` object), so an event that
meets only scanning tables is never keyed.

Neither the scan nor a table's store derives anything per hop: a
:class:`~repro.pubsub.subscription.Subscription` carries its quantised
ranges and their packed box from construction, and
:meth:`InterfaceTable.add` hands both to its match index as they are.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..geometry.universe import Universe, packed_guard
from ..index.config import IndexConfig
from ..sfc.zorder import ZOrderCurve
from .match_index import MatchIndex, MatchIndexStats
from .schema import AttributeSchema
from .subscription import Event, Subscription
from .subscription_store import ProfileCache

__all__ = [
    "InterfaceTable",
    "RoutingTable",
    "COVERING_KINDS",
    "check_covering_kind",
]

#: Covering kinds a broker accepts: ``none`` forwards every subscription;
#: ``approximate`` suppresses one a forwarded subscription covers, found by an
#: exact scan.
COVERING_KINDS = ("none", "approximate")


def check_covering_kind(kind: str) -> None:
    """Raise ``ValueError`` unless ``kind`` names a covering kind."""
    if kind not in COVERING_KINDS:
        raise ValueError(
            f"unknown covering strategy {kind!r}; expected one of {COVERING_KINDS}"
        )


class InterfaceTable:
    """Subscriptions learnt through a single interface.

    While the table holds at most :attr:`SCAN_LIMIT` subscriptions it answers
    :meth:`any_match` / :meth:`matching_ids` by scanning them with the
    rectangle test; the add that takes it past builds a
    :class:`~repro.pubsub.match_index.MatchIndex` over all of them in one
    bulk load, kept for the table's life.  The index is built under the
    table's :class:`~repro.index.config.IndexConfig`, and only its probes
    read the event's :attr:`~repro.pubsub.subscription.Event.key`: the first
    one keys the ``Event`` object, and every later probe of the same object,
    at this table or any other, reads the key back.  A scanning table never
    keys.

    The limit trades probe cost against write cost: the index's writes
    cost about 25 times the scan's dict write, and its ``matching_ids``
    probe undercuts the scan's from about 48 subscriptions.
    ``experiments/scan_crossover.py`` prices both per table size and
    ``experiments/table_traffic.py`` counts the probes per write of the
    benchmark workloads' tables; the limit is the ``matching_ids``
    crossover of a local-client table at the fewest probes per write
    counted.  A neighbour table, asked only ``any_match`` (whose scan
    stops at the first hit and stays cheaper to 256 subscriptions at 1 to
    100 probes per write), is held to the same limit and indexes at a loss.
    """

    #: Subscriptions a table scans before it builds its index: the median
    #: over 16 runs of ``scan_crossover.py``'s ``matching_ids`` crossover at
    #: 15 probes per write (``LIMIT_RATIO``; 37–67 on a 2-core host).
    SCAN_LIMIT = 60

    def __init__(
        self,
        interface_id: Hashable,
        schema: AttributeSchema,
        config: Optional[IndexConfig] = None,
        run_cache: Optional[ProfileCache] = None,
    ) -> None:
        self.interface_id = interface_id
        self.schema = schema
        self.config = config or IndexConfig()
        self._run_cache = run_cache
        self._subscriptions: Dict[Hashable, Subscription] = {}
        self._guard = packed_guard(schema.num_attributes, schema.order)
        self._index = None
        # What the scan has done: counted as the index counts its probes, so
        # match_stats covers the table's whole life.
        self._scan_stats = MatchIndexStats()

    @property
    def match_index(self):
        """The SFC match index, or ``None`` while the table scans."""
        return self._index

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: Hashable) -> bool:
        return sub_id in self._subscriptions

    def add(self, subscription: Subscription) -> None:
        # The schema check runs on every add, before anything is mutated.  A
        # subscription on a compatible schema has valid ranges by
        # construction, so the index takes its ranges and packed box as they
        # are (MatchIndex.add with ``box``: no re-validation, no re-packing).
        sub_id = subscription.sub_id
        subscriptions = self._subscriptions
        if not self.schema.compatible_with(subscription.schema):
            raise ValueError(
                f"subscription {sub_id!r} is on another schema than interface "
                f"{self.interface_id!r}"
            )
        if self._index is not None:
            self._index.add(sub_id, subscription.ranges, subscription.box)
        elif len(subscriptions) >= self.SCAN_LIMIT and sub_id not in subscriptions:
            self._build_index(subscription)
        subscriptions[sub_id] = subscription

    def _build_index(self, arriving: Subscription) -> None:
        """Index every stored subscription plus ``arriving``, in table order, in one bulk load."""
        index = MatchIndex(self.schema, config=self.config, run_cache=self._run_cache)
        items = [(sub_id, sub.ranges) for sub_id, sub in self._subscriptions.items()]
        items.append((arriving.sub_id, arriving.ranges))
        index.add_batch(items)
        self._index = index

    def remove(self, sub_id: Hashable) -> bool:
        removed = self._subscriptions.pop(sub_id, None) is not None
        if removed and self._index is not None:
            self._index.remove(sub_id)
        return removed

    def subscriptions(self) -> List[Subscription]:
        return list(self._subscriptions.values())

    def match_stats(self) -> MatchIndexStats:
        """A snapshot of the match counters: the scan's plus, once built, the index's."""
        stats = replace(self._scan_stats)
        if self._index is not None:
            for name, value in asdict(self._index.stats).items():
                setattr(stats, name, getattr(stats, name) + value)
        return stats

    # --------------------------------------------------------------- queries
    # The scan tests every stored subscription in table order and counts as
    # an index probe counts: every test in ``candidates_checked``, every
    # rejection in ``false_positives``.  The test is the index's packed one,
    # on the subscription's ``box`` and the event's ``point`` (see
    # ``MatchIndex.any_match``).  Only the index branch reads the event's key.
    def matching_ids(self, event: Event) -> Tuple[List[Hashable], int]:
        """Ids of the stored subscriptions matching ``event``, and what finding them cost.

        The second item is the number of rectangle tests made: every stored
        subscription while the table scans, the candidates of one index
        probe once it has an index.  Matches come in table order while the
        table scans and in the index's slot order after.
        """
        index = self._index
        if index is None:
            point = event.point
            guard = self._guard
            guarded = point | guard
            matched: List[Hashable] = []
            for sub_id, sub in self._subscriptions.items():
                lo, hi = sub.box
                if point >= lo and hi >= guarded and (guarded - lo) & (hi - point) & guard == guard:
                    matched.append(sub_id)
            tested = len(self._subscriptions)
            stats = self._scan_stats
            stats.lookups += 1
            stats.candidates_checked += tested
            stats.false_positives += tested - len(matched)
            return matched, tested
        checked = index.stats.candidates_checked
        matched = index.matching_ids(event.cells, event.key, event.point)
        return matched, index.stats.candidates_checked - checked

    def any_match(self, event: Event) -> bool:
        """Return True when at least one stored subscription matches ``event``."""
        index = self._index
        if index is not None:
            return index.any_match(event.cells, event.key, event.point)
        point = event.point
        guard = self._guard
        guarded = point | guard
        tested = 0
        found = False
        for sub in self._subscriptions.values():
            tested += 1
            lo, hi = sub.box
            if point >= lo and hi >= guarded and (guarded - lo) & (hi - point) & guard == guard:
                found = True
                break
        stats = self._scan_stats
        stats.lookups += 1
        stats.candidates_checked += tested
        stats.false_positives += tested - found
        return found


class RoutingTable:
    """All interface tables of one broker.

    An event's Z key is computed only when an indexed table probes for it,
    and once per ``Event`` object, not per broker or table: it is
    :attr:`Event.key <repro.pubsub.subscription.Event.key>`, derived on
    first read and kept on the event.  :meth:`event_keys` keys a batch in
    one pass into the same attribute.  ``run_cache`` is handed to every
    index so a rectangle stored on several interfaces — or, with a
    network-wide cache, at several brokers — is decomposed once.
    """

    def __init__(
        self,
        schema: AttributeSchema,
        config: Optional[IndexConfig] = None,
        run_cache: Optional[ProfileCache] = None,
    ) -> None:
        config = config or IndexConfig()
        # A table builds its index mid-propagation, when it outgrows its
        # scan: a grid the budget cannot derive must raise here instead.
        config.effective_precision_bits(schema.num_attributes)
        self.schema = schema
        self.config = config
        self._run_cache = run_cache
        self._tables: Dict[Hashable, InterfaceTable] = {}
        self._curve = ZOrderCurve(Universe(dims=schema.num_attributes, order=schema.order))

    def table(self, interface_id: Hashable) -> InterfaceTable:
        """Return (creating on demand) the table for ``interface_id``."""
        if interface_id not in self._tables:
            self._tables[interface_id] = InterfaceTable(
                interface_id,
                self.schema,
                config=self.config,
                run_cache=self._run_cache,
            )
        return self._tables[interface_id]

    def interfaces(self) -> Iterable[Hashable]:
        return self._tables.keys()

    def interface_tables(self) -> Dict[Hashable, InterfaceTable]:
        """Live view of the interface tables, in creation order."""
        return self._tables

    def total_entries(self) -> int:
        """Total number of subscription entries across all interfaces."""
        return sum(len(table) for table in self._tables.values())

    def event_keys(self, events: Sequence[Event]) -> List[int]:
        """Z keys of a batch of events, keyed in one pass and kept on the events.

        :meth:`ZOrderCurve.keys <repro.sfc.zorder.ZOrderCurve.keys>` spreads
        each distinct coordinate value at most once per dimension across the
        batch (or interleaves it in one numpy pass), where reading
        :attr:`Event.key <repro.pubsub.subscription.Event.key>` event by
        event keys each alone.  Each key fills its event's ``key``, so no
        table keys these events again.
        """
        keys = self._curve.keys([event.cells for event in events])
        for event, key in zip(events, keys):
            object.__setattr__(event, "key", key)
        return keys

    def matching_interfaces(
        self,
        event: Event,
        exclude: Optional[Hashable] = None,
        among: Optional[Iterable[Hashable]] = None,
    ) -> List[Hashable]:
        """Interfaces (≠ ``exclude``) holding at least one subscription matching ``event``.

        ``among`` restricts the probe to the given interfaces (the broker
        passes its neighbours: the local-client table is asked for *which*
        subscriptions match, by local delivery, not merely whether any does).
        Every table is asked through :meth:`InterfaceTable.any_match`, in one
        loop with no candidate list: this runs once per event per broker.
        It computes no key; an indexed table keys the event when it probes.
        """
        tables = self._tables
        matched: List[Hashable] = []
        for interface_id in tables if among is None else among:
            if interface_id == exclude:
                continue
            table = tables.get(interface_id)
            if table is not None and table.any_match(event):
                matched.append(interface_id)
        return matched

    def match_segments(self) -> int:
        """Total disjoint key segments stored across all match indexes (0 in a scanning table).

        The structure-size counterpart of :meth:`match_work`: segment counts
        are what a rectangle's run count costs (more runs per rectangle →
        more segments per interface), summed per network by the experiments
        and the e2e benchmark's ``index.segments``.
        """
        return sum(
            table.match_index.segment_count()
            for table in self._tables.values()
            if table.match_index is not None
        )

    def match_work(self) -> Tuple[int, int, int]:
        """Aggregate ``(lookups, candidates_checked, false_positives)`` over all tables.

        Scans and index probes count alike (see :meth:`InterfaceTable.match_stats`).
        """
        lookups = candidates = false_positives = 0
        for table in self._tables.values():
            stats = table.match_stats()
            lookups += stats.lookups
            candidates += stats.candidates_checked
            false_positives += stats.false_positives
        return lookups, candidates, false_positives
