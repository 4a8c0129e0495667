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
the same scan below it).  The strategy factory keeps the broker code
independent of which detector is in use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    from .subscription_store import ProfileCache, SubscriptionProfile

from ..baselines.linear_scan import LinearScanCoveringDetector
from ..baselines.probabilistic import ProbabilisticCoveringDetector
from ..core.covering import ApproximateCoveringDetector
from ..geometry.universe import Universe
from ..index.config import IndexConfig
from ..sfc.base import SpaceFillingCurve
from ..sfc.factory import make_curve
from .match_index import MatchIndex, MatchIndexStats
from .schema import AttributeSchema
from .sharded_index import ShardedMatchIndex
from .subscription import Event, Subscription

__all__ = [
    "CoveringStrategy",
    "NoCoveringStrategy",
    "ExactCoveringStrategy",
    "ApproximateCoveringStrategy",
    "ProbabilisticCoveringStrategy",
    "make_covering_strategy",
    "InterfaceTable",
    "RoutingTable",
    "COVERING_KINDS",
    "MATCHING_KINDS",
    "check_covering_kind",
]

#: Covering strategies :func:`make_covering_strategy` can build.
COVERING_KINDS = ("none", "exact", "approximate", "probabilistic")

#: Event-matching implementations an interface table can use.
MATCHING_KINDS = ("linear", "sfc")


def check_covering_kind(kind: str) -> None:
    """Raise ``ValueError`` unless ``kind`` names a covering strategy."""
    if kind not in COVERING_KINDS:
        raise ValueError(
            f"unknown covering strategy {kind!r}; expected one of {COVERING_KINDS}"
        )


class CoveringStrategy(Protocol):
    """Minimal covering-detector contract the routing layer needs.

    The ``*_profile`` variants accept a
    :class:`~repro.pubsub.subscription_store.SubscriptionProfile` so the
    per-subscription geometry (validation, dominance transform, probe plan)
    computed once by the broker's store is shared by every link; strategies
    without shareable precomputation simply fall back to the profile's plain
    ranges, and every strategy must give identical answers through both
    entry points.
    """

    #: Human-readable strategy name used in experiment reports.
    name: str

    def add(self, sub_id: Hashable, ranges: Tuple[Tuple[int, int], ...]) -> None:
        """Register a subscription that has been forwarded."""

    def add_profile(self, sub_id: Hashable, profile: "SubscriptionProfile") -> None:
        """Register a forwarded subscription from its precomputed profile."""

    def remove(self, sub_id: Hashable) -> bool:
        """Unregister a subscription."""

    def find_covering(self, ranges: Tuple[Tuple[int, int], ...]) -> Optional[Hashable]:
        """Return a registered subscription covering ``ranges``, or ``None``."""

    def find_covering_profile(self, profile: "SubscriptionProfile") -> Optional[Hashable]:
        """Covering check through a precomputed profile (same answer as above)."""

    def work_units(self) -> int:
        """Return an abstract work counter for reporting.

        Subscriptions compared (``exact``), runs probed plus subscriptions
        compared (``approximate``) or sample points tested (``probabilistic``).
        """


@dataclass
class NoCoveringStrategy:
    """Covering disabled: every subscription is always forwarded."""

    name: str = "none"

    def add(self, sub_id: Hashable, ranges: Tuple[Tuple[int, int], ...]) -> None:
        return None

    def add_profile(self, sub_id: Hashable, profile) -> None:
        return None

    def remove(self, sub_id: Hashable) -> bool:
        return False

    def find_covering(self, ranges: Tuple[Tuple[int, int], ...]) -> Optional[Hashable]:
        return None

    def find_covering_profile(self, profile) -> Optional[Hashable]:
        return None

    def work_units(self) -> int:
        return 0


class ExactCoveringStrategy:
    """Exact covering via linear scan over the registered subscriptions."""

    def __init__(self, attributes: int, attribute_order: int) -> None:
        self.name = "exact"
        self._detector = LinearScanCoveringDetector(attributes, attribute_order)

    def add(self, sub_id: Hashable, ranges: Tuple[Tuple[int, int], ...]) -> None:
        self._detector.add_subscription(sub_id, ranges)

    def add_profile(self, sub_id: Hashable, profile) -> None:
        self.add(sub_id, profile.ranges)

    def remove(self, sub_id: Hashable) -> bool:
        return self._detector.remove_subscription(sub_id)

    def find_covering(self, ranges: Tuple[Tuple[int, int], ...]) -> Optional[Hashable]:
        return self._detector.find_covering(ranges)

    def find_covering_profile(self, profile) -> Optional[Hashable]:
        return self.find_covering(profile.ranges)

    def work_units(self) -> int:
        return self._detector.stats.comparisons


class ApproximateCoveringStrategy:
    """The paper's ε-approximate covering detector on a broker link.

    Every check goes through the detector's one routing entry point,
    :meth:`~repro.core.covering.ApproximateCoveringDetector.find_covering_profile`:
    while the link holds no more forwarded subscriptions than the query's
    probe schedule has cubes they are compared directly (the ``exact``
    strategy's answer), above that the schedule is executed against the SFC
    index.  The crossover is the plan's own size, so ``cube_budget`` bounds it.
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
        self._work_units = 0

    def add(self, sub_id: Hashable, ranges: Tuple[Tuple[int, int], ...]) -> None:
        self._detector.add_subscription(sub_id, ranges)

    def add_profile(self, sub_id: Hashable, profile) -> None:
        if profile.covering is not None:
            self._detector.add_subscription_profile(sub_id, profile.covering)
        else:
            self.add(sub_id, profile.ranges)

    def remove(self, sub_id: Hashable) -> bool:
        return self._detector.remove_subscription(sub_id)

    def find_covering(self, ranges: Tuple[Tuple[int, int], ...]) -> Optional[Hashable]:
        result = self._detector.find_covering_profile(self._detector.profile(ranges))
        self._work_units += result.work_units
        return result.covering_id

    def find_covering_profile(self, profile) -> Optional[Hashable]:
        if profile.covering is None:
            return self.find_covering(profile.ranges)
        result = self._detector.find_covering_profile(profile.covering)
        self._work_units += result.work_units
        return result.covering_id

    def work_units(self) -> int:
        return self._work_units


class ProbabilisticCoveringStrategy:
    """Monte-Carlo covering (Ouksel et al. style); may produce unsound suppressions."""

    def __init__(
        self, attributes: int, attribute_order: int, samples: int = 8, seed: Optional[int] = None
    ) -> None:
        self.name = f"probabilistic(samples={samples})"
        self._detector = ProbabilisticCoveringDetector(
            attributes, attribute_order, samples=samples, seed=seed
        )

    def add(self, sub_id: Hashable, ranges: Tuple[Tuple[int, int], ...]) -> None:
        self._detector.add_subscription(sub_id, ranges)

    def add_profile(self, sub_id: Hashable, profile) -> None:
        self.add(sub_id, profile.ranges)

    def remove(self, sub_id: Hashable) -> bool:
        return self._detector.remove_subscription(sub_id)

    def find_covering(self, ranges: Tuple[Tuple[int, int], ...]) -> Optional[Hashable]:
        return self._detector.find_covering(ranges)

    def find_covering_profile(self, profile) -> Optional[Hashable]:
        return self.find_covering(profile.ranges)

    def work_units(self) -> int:
        return self._detector.stats.candidate_checks


def make_covering_strategy(
    kind: str,
    schema: AttributeSchema,
    samples: int = 8,
    seed: Optional[int] = None,
    config: Optional[IndexConfig] = None,
) -> CoveringStrategy:
    """Build a covering strategy by name (:data:`COVERING_KINDS`).

    ``config`` shapes the approximate strategy only (the others use no
    index): ``cube_budget`` bounds the per-check work — a router would
    enforce such a bound in practice so a single subscription arrival cannot
    stall the forwarding path — and with it the size of a link's forwarded
    set up to which that set is compared directly instead of probed,
    ``curve`` keys its dominance index, and
    ``backend`` may be any routing-layer name; the composite ``"sharded"``
    matching backend maps to the ordered-map backend its shards are built on.
    """
    check_covering_kind(kind)
    attributes = schema.num_attributes
    order = schema.order
    if kind == "none":
        return NoCoveringStrategy()
    if kind == "exact":
        return ExactCoveringStrategy(attributes, order)
    if kind == "approximate":
        return ApproximateCoveringStrategy(attributes, order, config=config)
    return ProbabilisticCoveringStrategy(attributes, order, samples=samples, seed=seed)


class InterfaceTable:
    """Subscriptions learnt through a single interface.

    Event matching is pluggable: ``matching="linear"`` scans the stored
    subscriptions per event (the baseline), ``matching="sfc"`` maintains a
    :class:`~repro.pubsub.match_index.MatchIndex` so that "does anything here
    match?" is a single ordered-map probe plus a handful of rectangle checks.
    Both give identical answers; the audit in :class:`BrokerNetwork` can be
    run under either to compare them.

    The index is built once, under the routing table's
    :class:`~repro.index.config.IndexConfig`, and kept for the table's life:
    its curve is the routing table's curve, so the event key the routing table
    computes once per event is passed straight to the probe.  A config is
    chosen for a workload offline, before the network is built.
    """

    def __init__(
        self,
        interface_id: Hashable,
        schema: Optional[AttributeSchema] = None,
        matching: str = "linear",
        seed: Optional[int] = None,
        config: Optional[IndexConfig] = None,
        run_cache: Optional["ProfileCache"] = None,
    ) -> None:
        config = config or IndexConfig()
        if matching not in MATCHING_KINDS:
            raise ValueError(
                f"unknown matching kind {matching!r}; expected one of {MATCHING_KINDS}"
            )
        if matching == "sfc" and schema is None:
            raise ValueError("matching='sfc' requires the attribute schema")
        self.interface_id = interface_id
        self.matching_kind = matching
        self.schema = schema
        self.config = config
        self._subscriptions: Dict[Hashable, Subscription] = {}
        if matching != "sfc":
            self._index = None
        elif config.backend == "sharded":
            self._index = ShardedMatchIndex(
                schema, workers="inline", seed=seed, config=config, run_cache=run_cache
            )
        else:
            self._index = MatchIndex(schema, seed=seed, config=config, run_cache=run_cache)

    @property
    def match_index(self):
        """The SFC match index (plain or sharded), or ``None`` under linear matching."""
        return self._index

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: Hashable) -> bool:
        return sub_id in self._subscriptions

    def add(self, subscription: Subscription) -> None:
        # Index first: MatchIndex.add validates before mutating, so a rejected
        # subscription leaves table and index consistent.
        if self._index is not None:
            self._index.add(subscription.sub_id, subscription.ranges)
        self._subscriptions[subscription.sub_id] = subscription

    def remove(self, sub_id: Hashable) -> bool:
        removed = self._subscriptions.pop(sub_id, None) is not None
        if removed and self._index is not None:
            self._index.remove(sub_id)
        return removed

    def subscriptions(self) -> List[Subscription]:
        return list(self._subscriptions.values())

    def match_stats(self) -> MatchIndexStats:
        """A snapshot of the index's match counters (all zero under linear matching)."""
        if self._index is None:
            return MatchIndexStats()
        return replace(self._index.stats)

    # --------------------------------------------------------------- queries
    def matching_ids(
        self, event: Event, key: Optional[int] = None
    ) -> Tuple[List[Hashable], int]:
        """Ids of the stored subscriptions matching ``event``, and what finding them cost.

        The second item is the number of rectangle tests made: every stored
        subscription under linear matching, the candidates of one index probe
        under SFC matching.  ``key`` optionally supplies the event's
        precomputed SFC key (ignored under linear matching).
        Result order is insertion order for linear matching and unspecified
        for SFC matching.
        """
        index = self._index
        if index is None:
            matched = [
                sub_id
                for sub_id, sub in self._subscriptions.items()
                if sub.matches(event)
            ]
            return matched, len(self._subscriptions)
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
            return self._index.any_match(event.cells, key=key)
        return any(sub.matches(event) for sub in self._subscriptions.values())


class RoutingTable:
    """All interface tables of one broker.

    When built with ``matching="sfc"`` every interface table carries a
    :class:`MatchIndex` and event routing computes each event's curve key
    once — per ``Event`` object, not per broker: :meth:`event_key` remembers
    it on the event — sharing it across all interface probes (and, via
    :meth:`event_keys`, across the events of a batch).  ``run_cache`` is
    handed to every index so a rectangle stored on several interfaces — or,
    with a network-wide cache, at several brokers — is decomposed once.
    """

    def __init__(
        self,
        schema: Optional[AttributeSchema] = None,
        matching: str = "linear",
        seed: Optional[int] = None,
        config: Optional[IndexConfig] = None,
        run_cache: Optional["ProfileCache"] = None,
    ) -> None:
        config = config or IndexConfig()
        if matching not in MATCHING_KINDS:
            raise ValueError(
                f"unknown matching kind {matching!r}; expected one of {MATCHING_KINDS}"
            )
        if matching == "sfc" and schema is None:
            raise ValueError("matching='sfc' requires the attribute schema")
        self.schema = schema
        self.matching_kind = matching
        self.config = config
        self._run_cache = run_cache
        self._seed = seed
        self._tables: Dict[Hashable, InterfaceTable] = {}
        self._curve: Optional[SpaceFillingCurve] = (
            make_curve(
                config.curve,
                Universe(dims=schema.num_attributes, order=schema.order),
            )
            if matching == "sfc" and schema is not None
            else None
        )
        # Everything an event's key depends on besides its cells: what the
        # key an Event remembers is tagged with (see event_key).
        self._key_tag = (
            (config.curve, schema.num_attributes, schema.order)
            if self._curve is not None
            else None
        )

    def table(self, interface_id: Hashable) -> InterfaceTable:
        """Return (creating on demand) the table for ``interface_id``."""
        if interface_id not in self._tables:
            self._tables[interface_id] = InterfaceTable(
                interface_id,
                schema=self.schema,
                matching=self.matching_kind,
                seed=self._seed,
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

    def event_key(self, event: Event) -> Optional[int]:
        """SFC key of ``event`` under SFC matching, ``None`` under linear.

        The key is remembered on the event, tagged with this table's curve
        kind, dimensions and order: the next broker the same ``Event`` object
        reaches (every hop of an in-process transport) reads it back instead
        of re-keying, and a table under another curve computes its own.
        """
        if self._curve is None:
            return None
        key = event.curve_key(self._key_tag)
        if key is None:
            key = self._curve.key(event.cells)
            event.remember_curve_key(self._key_tag, key)
        return key

    def event_keys(self, events: Sequence[Event]) -> List[Optional[int]]:
        """SFC keys for a batch of events, amortising shared work where the curve can.

        Delegates to :meth:`SpaceFillingCurve.keys`; the Z curve spreads each
        distinct coordinate value at most once per dimension across the whole
        batch — batches with recurring attribute values (hot topics, repeated
        prices) pay far less than per-event key construction — while other
        curves fall back to per-event keying.  The keys are remembered on the
        events exactly as :meth:`event_key` would.
        """
        if self._curve is None:
            return [None] * len(events)
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
        among: Optional[Sequence[Hashable]] = None,
    ) -> List[Hashable]:
        """Interfaces (≠ ``exclude``) holding at least one subscription matching ``event``.

        ``among`` restricts the probe to the given interfaces (the broker
        passes its neighbour list: the local-client table is asked for *which*
        subscriptions match, by local delivery, not merely whether any does).
        """
        if key is None:
            key = self.event_key(event)
        if among is None:
            candidates = self._tables.items()
        else:
            candidates = [
                (interface_id, self._tables[interface_id])
                for interface_id in among
                if interface_id in self._tables
            ]
        return [
            interface_id
            for interface_id, table in candidates
            if interface_id != exclude and table.any_match(event, key=key)
        ]

    def match_segments(self) -> int:
        """Total disjoint key segments stored across all match indexes (0 under linear).

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
        """Aggregate ``(lookups, candidates_checked, false_positives)`` over all match indexes."""
        lookups = candidates = false_positives = 0
        for table in self._tables.values():
            if table.match_index is not None:
                stats = table.match_index.stats
                lookups += stats.lookups
                candidates += stats.candidates_checked
                false_positives += stats.false_positives
        return lookups, candidates, false_positives
