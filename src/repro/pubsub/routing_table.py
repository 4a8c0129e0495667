"""Per-interface routing tables with pluggable covering detection.

A broker keeps, for every interface (a neighbouring broker or a local client),
the set of subscriptions it has learnt through that interface.  Event
forwarding consults the table: an event is sent out of an interface exactly
when some subscription stored for that interface matches it.

Covering enters when deciding whether an incoming subscription needs to be
*forwarded* to a neighbour at all: if a subscription already forwarded to that
neighbour covers the new one, forwarding is redundant.  The covering check is
delegated to a :class:`CoveringStrategy`, of which three are provided —
``none`` (always forward), ``exact`` (linear scan), and ``approximate`` (the
paper's ε-approximate SFC detector above the size of its own probe schedule,
the same scan below it).  All three are sound: a reported cover really
covers, so suppression never costs a delivery.  A strategy has one entry
point per operation, each taking the subscription's shared profile, and
:func:`make_covering_strategy` / :func:`make_profile_cache` keep the broker
code independent of which detector is in use.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .subscription_store import SubscriptionProfile

from ..baselines.linear_scan import LinearScanCoveringDetector
from ..core.covering import ApproximateCoveringDetector, CoveringProfiler
from ..geometry.universe import Universe
from ..index.config import IndexConfig
from ..index.sfc_array import FlatSegmentStore
from ..sfc.base import SpaceFillingCurve
from ..sfc.factory import make_curve
from .match_index import MatchIndex, MatchIndexStats
from .schema import AttributeSchema
from .sharded_index import ShardedMatchIndex
from .subscription import Event, Subscription
from .subscription_store import ProfileCache

__all__ = [
    "CoveringStrategy",
    "NoCoveringStrategy",
    "ExactCoveringStrategy",
    "ApproximateCoveringStrategy",
    "make_covering_strategy",
    "make_profile_cache",
    "InterfaceTable",
    "RoutingTable",
    "COVERING_KINDS",
    "check_covering_kind",
]

#: Covering strategies :func:`make_covering_strategy` can build.
COVERING_KINDS = ("none", "exact", "approximate")


def check_covering_kind(kind: str) -> None:
    """Raise ``ValueError`` unless ``kind`` names a covering strategy."""
    if kind not in COVERING_KINDS:
        raise ValueError(
            f"unknown covering strategy {kind!r}; expected one of {COVERING_KINDS}"
        )


class CoveringStrategy(Protocol):
    """Minimal covering-detector contract the routing layer needs.

    Every operation takes a subscription's
    :class:`~repro.pubsub.subscription_store.SubscriptionProfile`, so the
    per-subscription geometry (validation, dominance transform, probe plan)
    computed once by the broker's store is shared by every link; a strategy
    without shareable precomputation reads the profile's plain ranges.
    """

    #: Human-readable strategy name used in experiment reports.
    name: str

    def add(self, sub_id: Hashable, profile: "SubscriptionProfile") -> None:
        """Register a subscription that has been forwarded."""

    def remove(self, sub_id: Hashable) -> bool:
        """Unregister a subscription."""

    def find_covering(self, profile: "SubscriptionProfile") -> Tuple[Optional[Hashable], int]:
        """A registered subscription covering the profile's ranges (or ``None``), and the check's cost.

        The cost is abstract work units: subscriptions compared (``exact``),
        or runs probed plus subscriptions compared (``approximate``).
        """


@dataclass
class NoCoveringStrategy:
    """Covering disabled: every subscription is always forwarded."""

    name: str = "none"

    def add(self, sub_id: Hashable, profile: "SubscriptionProfile") -> None:
        return None

    def remove(self, sub_id: Hashable) -> bool:
        return False

    def find_covering(self, profile: "SubscriptionProfile") -> Tuple[Optional[Hashable], int]:
        return None, 0


class ExactCoveringStrategy:
    """Exact covering via linear scan over the registered subscriptions."""

    def __init__(self, attributes: int, attribute_order: int) -> None:
        self.name = "exact"
        self._detector = LinearScanCoveringDetector(attributes, attribute_order)

    def add(self, sub_id: Hashable, profile: "SubscriptionProfile") -> None:
        self._detector.add_subscription(sub_id, profile.ranges)

    def remove(self, sub_id: Hashable) -> bool:
        return self._detector.remove_subscription(sub_id)

    def find_covering(self, profile: "SubscriptionProfile") -> Tuple[Optional[Hashable], int]:
        stats = self._detector.stats
        compared = stats.comparisons
        covering_id = self._detector.find_covering(profile.ranges)
        return covering_id, stats.comparisons - compared


class ApproximateCoveringStrategy:
    """The paper's ε-approximate covering detector on a broker link.

    Every check goes through the detector's one routing entry point,
    :meth:`~repro.core.covering.ApproximateCoveringDetector.find_covering_profile`:
    while the link holds no more forwarded subscriptions than the query's
    probe schedule has cubes they are compared directly (the ``exact``
    strategy's answer), above that the schedule is executed against the SFC
    index.  The crossover is the plan's own size, so ``cube_budget`` bounds it.
    A profile without a covering half (built by a cache with no profiler) is
    profiled by the link's detector.
    """

    def __init__(
        self,
        attributes: int,
        attribute_order: int,
        config: Optional[IndexConfig] = None,
    ) -> None:
        self.config = config = config or IndexConfig()
        self.name = f"approx(ε={config.epsilon})"
        self._detector = ApproximateCoveringDetector(
            attributes=attributes,
            attribute_order=attribute_order,
            config=config,
        )

    def add(self, sub_id: Hashable, profile: "SubscriptionProfile") -> None:
        detector = self._detector
        detector.add_subscription_profile(
            sub_id, profile.covering or detector.profile(profile.ranges)
        )

    def remove(self, sub_id: Hashable) -> bool:
        return self._detector.remove_subscription(sub_id)

    def find_covering(self, profile: "SubscriptionProfile") -> Tuple[Optional[Hashable], int]:
        detector = self._detector
        result = detector.find_covering_profile(
            profile.covering or detector.profile(profile.ranges)
        )
        return result.covering_id, result.work_units


def make_covering_strategy(
    kind: str,
    schema: AttributeSchema,
    config: Optional[IndexConfig] = None,
) -> CoveringStrategy:
    """Build a covering strategy by name (:data:`COVERING_KINDS`).

    ``config`` shapes the approximate strategy only (the others use no
    index): ``cube_budget`` bounds the per-check work — a router would
    enforce such a bound in practice so a single subscription arrival cannot
    stall the forwarding path — and with it the size of a link's forwarded
    set up to which that set is compared directly instead of probed,
    and ``curve`` keys its dominance index.
    """
    check_covering_kind(kind)
    if kind == "none":
        return NoCoveringStrategy()
    if kind == "exact":
        return ExactCoveringStrategy(schema.num_attributes, schema.order)
    return ApproximateCoveringStrategy(schema.num_attributes, schema.order, config=config)


def make_profile_cache(
    kind: str, schema: AttributeSchema, config: Optional[IndexConfig] = None
) -> ProfileCache:
    """The :class:`ProfileCache` the links of covering strategy ``kind`` share.

    Only the approximate strategy reads a covering profile, so only its
    cache carries a :class:`~repro.core.covering.CoveringProfiler` (built
    under ``config``); the others get a cache that holds match runs alone.
    """
    check_covering_kind(kind)
    if kind != "approximate":
        return ProfileCache(None)
    return ProfileCache(
        CoveringProfiler(schema.num_attributes, schema.order, config=config or IndexConfig())
    )


class InterfaceTable:
    """Subscriptions learnt through a single interface.

    While the table holds at most :attr:`SCAN_LIMIT` subscriptions it answers
    :meth:`any_match` / :meth:`matching_ids` by scanning them with the
    rectangle test; the add that takes it past builds a
    :class:`~repro.pubsub.match_index.MatchIndex` over all of them in one
    bulk load, kept for the table's life.  The limit is the flat store's
    write-side staging ceiling, :data:`FlatSegmentStore.PENDING_SLOTS`: an
    index that small may hold every subscription staged, testing each by
    rectangle on every probe, and the scan makes those tests in the same
    order without the index's keying, interning and staging on every write.
    An index flattens its staged slots once its probes have paid for the
    sweep, which a small table probed on every publish would soon do; the
    scan's limit is left where the ceiling is until that is measured on
    tables this small (ROADMAP).  The index is built
    under the routing table's :class:`~repro.index.config.IndexConfig`, so
    the event key the routing table computes once per event goes straight to
    its probe.
    """

    #: Subscriptions a table scans before it builds its index (the store's
    #: write-side staging ceiling).
    SCAN_LIMIT = FlatSegmentStore.PENDING_SLOTS

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
        self._index = None
        # What the scan has done: counted as the index counts its probes, so
        # match_stats covers the table's whole life.
        self._scan_stats = MatchIndexStats()

    @property
    def match_index(self):
        """The SFC match index (plain or sharded), or ``None`` while the table scans."""
        return self._index

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: Hashable) -> bool:
        return sub_id in self._subscriptions

    def add(self, subscription: Subscription) -> None:
        # The schema check runs on every add: a match index validates only
        # the number of ranges and their bounds.  Index next: MatchIndex.add
        # and add_batch validate before mutating, so a rejected subscription
        # leaves table and index consistent.
        sub_id = subscription.sub_id
        subscriptions = self._subscriptions
        if (
            subscription.schema is not self.schema
            and subscription.schema.names != self.schema.names
        ):
            raise ValueError(
                f"subscription {sub_id!r} is on another schema than interface "
                f"{self.interface_id!r}"
            )
        if self._index is not None:
            self._index.add(sub_id, subscription.ranges)
        elif len(subscriptions) >= self.SCAN_LIMIT and sub_id not in subscriptions:
            self._build_index(subscription)
        subscriptions[sub_id] = subscription

    def _build_index(self, arriving: Subscription) -> None:
        """Index every stored subscription plus ``arriving``, in table order, in one bulk load.

        The index is one :class:`MatchIndex`, or a :class:`ShardedMatchIndex`
        of in-process shards under ``backend="sharded"``.
        """
        config = self.config
        if config.backend == "sharded":
            index = ShardedMatchIndex(self.schema, config=config, run_cache=self._run_cache)
        else:
            index = MatchIndex(self.schema, config=config, run_cache=self._run_cache)
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
    # The scan makes the tests an index of SCAN_LIMIT staged slots makes, in
    # the same order, and counts them the same way: every test in
    # ``candidates_checked``, every rejection in ``false_positives``.
    def matching_ids(
        self, event: Event, key: Optional[int] = None
    ) -> Tuple[List[Hashable], int]:
        """Ids of the stored subscriptions matching ``event``, and what finding them cost.

        The second item is the number of rectangle tests made: every stored
        subscription while the table scans, the candidates of one index
        probe once it has an index.  ``key`` optionally supplies the event's
        precomputed SFC key (the scan needs none).  Matches come in table
        order while the table scans and in the index's slot order after.
        """
        index = self._index
        if index is None:
            cells = event.cells
            matched: List[Hashable] = []
            for sub_id, sub in self._subscriptions.items():
                for (lo, hi), cell in zip(sub.ranges, cells):
                    if not lo <= cell <= hi:
                        break
                else:
                    matched.append(sub_id)
            tested = len(self._subscriptions)
            stats = self._scan_stats
            stats.lookups += 1
            stats.candidates_checked += tested
            stats.false_positives += tested - len(matched)
            return matched, tested
        checked = index.stats.candidates_checked
        matched = index.matching_ids(event.cells, key=key)
        return matched, index.stats.candidates_checked - checked

    def matching(self, event: Event, key: Optional[int] = None) -> List[Subscription]:
        """Return the stored subscriptions matching ``event`` (see :meth:`matching_ids`)."""
        subscriptions = self._subscriptions
        return [subscriptions[sub_id] for sub_id in self.matching_ids(event, key)[0]]

    def any_match(self, event: Event, key: Optional[int] = None) -> bool:
        """Return True when at least one stored subscription matches ``event``."""
        if self._index is not None:
            return self._index.any_match(event.cells, key)
        cells = event.cells
        tested = 0
        found = False
        for sub in self._subscriptions.values():
            tested += 1
            for (lo, hi), cell in zip(sub.ranges, cells):
                if not lo <= cell <= hi:
                    break
            else:
                found = True
                break
        stats = self._scan_stats
        stats.lookups += 1
        stats.candidates_checked += tested
        stats.false_positives += tested - found
        return found


class RoutingTable:
    """All interface tables of one broker.

    Event routing computes each event's curve key once — per ``Event``
    object, not per broker: :meth:`event_key` remembers it on the event — and
    shares it across all interface probes (and, via :meth:`event_keys`,
    across the events of a batch); a table that still scans ignores it.
    ``run_cache`` is handed to every index so a rectangle stored on several
    interfaces — or, with a network-wide cache, at several brokers — is
    decomposed once.
    """

    def __init__(
        self,
        schema: AttributeSchema,
        config: Optional[IndexConfig] = None,
        run_cache: Optional[ProfileCache] = None,
    ) -> None:
        config = config or IndexConfig()
        self.schema = schema
        self.config = config
        self._run_cache = run_cache
        self._tables: Dict[Hashable, InterfaceTable] = {}
        self._curve: SpaceFillingCurve = make_curve(
            config.curve, Universe(dims=schema.num_attributes, order=schema.order)
        )
        # Everything an event's key depends on besides its cells: what the
        # key an Event remembers is tagged with (see event_key).
        self._key_tag = (config.curve, schema.num_attributes, schema.order)

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

    def event_key(self, event: Event) -> int:
        """SFC key of ``event`` under this table's curve.

        The key is remembered on the event, tagged with this table's curve
        kind, dimensions and order: the next broker the same ``Event`` object
        reaches (every hop of an in-process transport) reads it back instead
        of re-keying, and a table under another curve computes its own.
        """
        key = event.curve_key(self._key_tag)
        if key is None:
            key = self._curve.key(event.cells)
            event.remember_curve_key(self._key_tag, key)
        return key

    def event_keys(self, events: Sequence[Event]) -> List[int]:
        """SFC keys for a batch of events, amortising shared work where the curve can.

        Delegates to :meth:`SpaceFillingCurve.keys`; the Z curve spreads each
        distinct coordinate value at most once per dimension across the whole
        batch — batches with recurring attribute values (hot topics, repeated
        prices) pay far less than per-event key construction — while other
        curves fall back to per-event keying.  The keys are remembered on the
        events exactly as :meth:`event_key` would.
        """
        tag = self._key_tag
        keys = list(self._curve.keys([event.cells for event in events]))
        for event, key in zip(events, keys):
            event.remember_curve_key(tag, key)
        return keys

    def matching_interfaces(
        self,
        event: Event,
        exclude: Optional[Hashable] = None,
        key: Optional[int] = None,
        among: Optional[Iterable[Hashable]] = None,
    ) -> List[Hashable]:
        """Interfaces (≠ ``exclude``) holding at least one subscription matching ``event``.

        ``among`` restricts the probe to the given interfaces (the broker
        passes its neighbours: the local-client table is asked for *which*
        subscriptions match, by local delivery, not merely whether any does).
        Every table is asked through :meth:`InterfaceTable.any_match` with the
        shared key, in one loop with no candidate list: this runs once per
        event per broker.
        """
        if key is None:
            key = self.event_key(event)
        tables = self._tables
        matched: List[Hashable] = []
        for interface_id in tables if among is None else among:
            if interface_id == exclude:
                continue
            table = tables.get(interface_id)
            if table is not None and table.any_match(event, key):
                matched.append(interface_id)
        return matched

    def match_segments(self) -> int:
        """Total disjoint key segments stored across all match indexes (0 in a scanning table).

        The structure-size counterpart of :meth:`match_work`: segment counts
        are where the choice of curve shows up (fewer runs per rectangle →
        fewer segments per interface), so the curve-ablation experiment
        aggregates them per network.
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
