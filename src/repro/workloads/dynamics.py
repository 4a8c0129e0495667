"""Dynamic (timed) workload scripts for the simulated broker network.

The static scenarios in :mod:`repro.workloads.scenarios` say *what* the
subscriptions and events look like; the scripts here say *when* things happen.
Each builder turns a scenario into a time-ordered list of :class:`Action`
objects — subscribe, unsubscribe, publish, crash, recover, join — that
:func:`run_dynamic_scenario` schedules on a network's simulated transport:

* :func:`flash_crowd_script` — a steady publish trickle followed by a burst
  of simultaneous publishes (queues build, backpressure kicks in).
* :func:`subscription_churn_script` — a storm of subscribe/unsubscribe flips
  mid-run plus a broker joining late, probing the withdrawal re-forwarding
  logic and join-time state announcement.
* :func:`rolling_failures_script` — brokers crash and recover one after
  another while traffic continues.
* :func:`netsplit_heal_script` — a set of brokers drops at one instant
  (severing the overlay into live partitions), audited traffic continues in
  *every* surviving component, then the split heals and traffic is audited
  against the reconverged full network.
* :func:`region_netsplit_script` — the region-level view of the same:
  netsplit a whole subtree/cluster of a generated
  :class:`~repro.workloads.topologies.Topology` by crashing its gateways.
* :func:`rolling_upgrade_script` — every broker restarts in sequence
  (crash, short downtime, recover) while audited traffic flows from
  whichever brokers are currently up.

Every subscription and event carries an explicit id and all randomness is
seeded, so two runs of the same script over identically-seeded networks are
byte-identical — the property the determinism tests pin down.

Publishes marked ``audit=True`` snapshot the ground-truth recipient set (live,
reachable subscribers) at publish time; the report compares it with what was
actually delivered once the run drains.  Builders only mark publishes that
happen after churn has stabilised, where the paper's safety claim must hold
exactly: for surviving subscribers, no event published after stabilisation may
be lost.  Stabilisation is a timing precondition, not something the runner can
enforce: each builder's settle window (:data:`SETTLE`, or its ``settle=``)
must exceed the overlay's worst-case propagation time (diameter × per-hop
delay); :data:`SETTLE` covers the shipped sub-second latency models.

A :class:`DynamicReport` carries the audit outcome plus the transport's live
:class:`~repro.sim.transport.TransportStats`; it copies no counter.  Per-broker
counters stay on the network the script ran on (``broker.stats``), and
``network.scrape()`` serialises all of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..obs.trace import Span, make_detail
from ..pubsub.network import BrokerNetwork
from ..pubsub.subscription import Event, Subscription
from ..sim.transport import TransportStats
from .scenarios import Scenario
from .topologies import Topology

__all__ = [
    "Action",
    "AuditEntry",
    "DynamicReport",
    "flash_crowd_script",
    "subscription_churn_script",
    "rolling_failures_script",
    "netsplit_heal_script",
    "region_netsplit_script",
    "rolling_upgrade_script",
    "run_dynamic_scenario",
    "run_scripted_lockstep",
]

#: Every script registers its subscriptions at seeded times in
#: ``[0, SUBSCRIBE_WINDOW]`` before anything else happens.
SUBSCRIBE_WINDOW = 5.0
#: The quiet time a script leaves after a disturbance before it audits; a
#: builder that takes ``settle=`` defaults to it.
SETTLE = 5.0


@dataclass(frozen=True)
class Action:
    """One timed step of a dynamic scenario.

    ``kind`` is one of ``subscribe`` / ``unsubscribe`` / ``publish`` /
    ``crash`` / ``recover`` / ``join`` — or the batched lifecycle steps
    ``subscribe_batch`` (``broker_id`` + ``items`` of ``(client_id,
    subscription)`` pairs) and ``unsubscribe_batch`` (``items`` of
    ``(client_id, sub_id)`` pairs), which route through the network's
    amortised batch APIs.
    """

    time: float
    kind: str
    broker_id: Optional[Hashable] = None
    client_id: Optional[Hashable] = None
    subscription: Optional[Subscription] = None
    sub_id: Optional[Hashable] = None
    event: Optional[Event] = None
    attach_to: Optional[Hashable] = None
    audit: bool = False
    items: Optional[Tuple[Tuple[Hashable, object], ...]] = None


@dataclass
class AuditEntry:
    """Ground truth vs. actual deliveries for one audited publish; the
    runner fills ``delivered`` once the run drains."""

    event_id: Hashable
    time: float
    origin: Hashable
    expected: Set[Hashable]
    delivered: Set[Hashable] = field(init=False, default_factory=set)

    @property
    def missed(self) -> Set[Hashable]:
        return self.expected - self.delivered

    @property
    def extra(self) -> Set[Hashable]:
        return self.delivered - self.expected


@dataclass
class DynamicReport:
    """Outcome of one dynamic scenario run.

    ``transport`` is the network's live :class:`TransportStats`; per-broker
    counters are read from the network the scenario ran on
    (``broker.stats`` over ``network.brokers``).
    """

    name: str
    actions_run: int
    actions_skipped: int
    events_published: int
    audited_events: int
    audits: List[AuditEntry]
    transport: TransportStats

    @property
    def missed_deliveries(self) -> int:
        return sum(len(entry.missed) for entry in self.audits)

    @property
    def extra_deliveries(self) -> int:
        return sum(len(entry.extra) for entry in self.audits)

    @property
    def clean(self) -> bool:
        """True when no audited publish lost a delivery."""
        return self.missed_deliveries == 0

    def summary_row(self) -> Dict[str, float]:
        """One reporting row: audit outcome plus the transport's timing metrics."""
        row: Dict[str, float] = {
            "scenario": self.name,  # type: ignore[dict-item]
            "events_published": self.events_published,
            "audited_events": self.audited_events,
            "missed_deliveries": self.missed_deliveries,
            "extra_deliveries": self.extra_deliveries,
        }
        row.update(self.transport.as_dict())
        return row


def _subscriptions_of(scenario: Scenario, prefix: str) -> List[Subscription]:
    """Materialise the scenario's subscriptions with explicit, stable ids."""
    return [
        Subscription(scenario.schema, constraints, sub_id=f"{prefix}-sub-{i}")
        for i, constraints in enumerate(scenario.subscriptions)
    ]


def _events_of(scenario: Scenario, prefix: str) -> List[Event]:
    """Materialise the scenario's events with explicit, stable ids."""
    return [
        Event(scenario.schema, values, event_id=f"{prefix}-event-{i}")
        for i, values in enumerate(scenario.events)
    ]


def flash_crowd_script(
    scenario: Scenario,
    broker_ids: Sequence[Hashable],
    *,
    settle: float = SETTLE,
    burst_fraction: float = 0.6,
    seed: Optional[int] = 0,
) -> List[Action]:
    """Steady publishing, then a flash crowd: a burst of simultaneous events.

    Subscriptions register over :data:`SUBSCRIBE_WINDOW`; after ``settle`` the
    first ``1 - burst_fraction`` of the scenario's events trickle out one per
    time unit, and the rest are all published at the same instant
    from brokers across the overlay — the moment bounded inboxes and
    backpressure become visible.  Every publish is audited: the network is
    failure-free here, so nothing may be lost even at burst depth.

    The audit snapshot is ground truth only once subscription propagation has
    quiesced, so ``settle`` must exceed the overlay's worst-case propagation
    time — roughly diameter × (link latency + service time).  The default
    (5.0) covers the shipped sub-second latency models on the stock
    topologies; slower links or wider overlays need a larger ``settle``, or
    the audit flags in-flight subscriptions as missed.
    """
    rng = random.Random(seed)
    prefix = f"flash-{scenario.name}"
    actions: List[Action] = []
    for i, subscription in enumerate(_subscriptions_of(scenario, prefix)):
        actions.append(
            Action(
                time=rng.uniform(0.0, SUBSCRIBE_WINDOW),
                kind="subscribe",
                broker_id=rng.choice(list(broker_ids)),
                client_id=f"{prefix}-client-{i}",
                subscription=subscription,
            )
        )
    events = _events_of(scenario, prefix)
    burst_start = max(1, int(len(events) * (1.0 - burst_fraction)))
    trickle, burst = events[:burst_start], events[burst_start:]
    t = SUBSCRIBE_WINDOW + settle
    for event in trickle:
        actions.append(
            Action(time=t, kind="publish", broker_id=rng.choice(list(broker_ids)),
                   event=event, audit=True)
        )
        t += 1.0
    burst_at = t + settle
    for event in burst:
        actions.append(
            Action(time=burst_at, kind="publish", broker_id=rng.choice(list(broker_ids)),
                   event=event, audit=True)
        )
    return sorted(actions, key=lambda a: a.time)


def subscription_churn_script(
    scenario: Scenario,
    broker_ids: Sequence[Hashable],
    *,
    join_broker: Optional[Hashable] = None,
    batch_size: int = 8,
    seed: Optional[int] = 0,
) -> List[Action]:
    """A subscription churn storm, optionally with a broker joining mid-run.

    The first half of the scenario's subscriptions register up front.  During
    the storm window, time 10 to 20, the second half subscribes while the
    first half unsubscribes, interleaved — the covering withdrawal path
    (re-forwarding subscriptions whose cover disappeared) runs continuously.
    When ``join_broker`` is given, a new broker attaches mid-storm to the
    first of ``broker_ids`` and receives a share of the new subscribers.  Probe publishes during the storm are
    unaudited (ground truth is ambiguous while subscriptions are in flight);
    after the storm settles every remaining event is published and audited.

    The storm rides the network's batch lifecycle APIs: per target broker,
    up to ``batch_size`` storm subscriptions coalesce into one
    ``subscribe_batch`` action (fired at the latest member's nominal time),
    and withdrawals likewise into ``unsubscribe_batch`` chunks —
    per-subscription decisions are identical, the amortisation is what the
    storm is probing.  Set ``batch_size=1`` to fall back to one action per
    subscription.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    storm_start, storm_duration = 10.0, 10.0
    rng = random.Random(seed)
    prefix = f"churn-{scenario.name}"
    subscriptions = _subscriptions_of(scenario, prefix)
    half = len(subscriptions) // 2
    initial, storm_wave = subscriptions[:half], subscriptions[half:]
    actions: List[Action] = []
    for i, subscription in enumerate(initial):
        actions.append(
            Action(
                time=rng.uniform(0.0, SUBSCRIBE_WINDOW),
                kind="subscribe",
                broker_id=rng.choice(list(broker_ids)),
                client_id=f"{prefix}-client-{i}",
                subscription=subscription,
            )
        )
    if join_broker is not None:
        join_time = storm_start + storm_duration / 2.0
        actions.append(
            Action(time=join_time, kind="join", broker_id=join_broker,
                   attach_to=list(broker_ids)[0])
        )
    placement_pool = list(broker_ids)
    pending_subscribes: Dict[Hashable, List[Tuple[float, Hashable, Subscription]]] = {}

    def flush_subscribes(target: Hashable) -> None:
        group = pending_subscribes.pop(target, [])
        if not group:
            return
        if len(group) == 1:
            t, client_id, subscription = group[0]
            actions.append(Action(time=t, kind="subscribe", broker_id=target,
                                  client_id=client_id, subscription=subscription))
            return
        actions.append(
            Action(
                time=max(t for t, _, _ in group),
                kind="subscribe_batch",
                broker_id=target,
                items=tuple((client_id, sub) for _, client_id, sub in group),
            )
        )

    for i, subscription in enumerate(storm_wave):
        t = storm_start + storm_duration * (i + 0.5) / max(1, len(storm_wave))
        if join_broker is not None and t > storm_start + storm_duration / 2.0 and rng.random() < 0.3:
            target = join_broker
        else:
            target = rng.choice(placement_pool)
        pending_subscribes.setdefault(target, []).append(
            (t, f"{prefix}-client-{half + i}", subscription)
        )
        if len(pending_subscribes[target]) >= batch_size:
            flush_subscribes(target)
    for target in list(pending_subscribes):
        flush_subscribes(target)
    pending_unsubscribes: List[Tuple[float, Hashable, Hashable]] = []

    def flush_unsubscribes() -> None:
        if not pending_unsubscribes:
            return
        if len(pending_unsubscribes) == 1:
            t, client_id, sub_id = pending_unsubscribes[0]
            actions.append(Action(time=t, kind="unsubscribe",
                                  client_id=client_id, sub_id=sub_id))
        else:
            actions.append(
                Action(
                    time=max(t for t, _, _ in pending_unsubscribes),
                    kind="unsubscribe_batch",
                    items=tuple((client_id, sub_id) for _, client_id, sub_id in pending_unsubscribes),
                )
            )
        pending_unsubscribes.clear()

    for i, subscription in enumerate(initial):
        t = storm_start + storm_duration * (i + 0.5) / max(1, len(initial))
        pending_unsubscribes.append((t, f"{prefix}-client-{i}", subscription.sub_id))
        if len(pending_unsubscribes) >= batch_size:
            flush_unsubscribes()
    flush_unsubscribes()
    events = _events_of(scenario, prefix)
    probes = events[: len(events) // 4]
    audited = events[len(events) // 4:]
    for i, event in enumerate(probes):
        t = storm_start + storm_duration * (i + 0.5) / max(1, len(probes))
        actions.append(
            Action(time=t, kind="publish", broker_id=rng.choice(placement_pool), event=event)
        )
    t = storm_start + storm_duration + SETTLE
    for event in audited:
        actions.append(
            Action(time=t, kind="publish", broker_id=rng.choice(placement_pool),
                   event=event, audit=True)
        )
        t += 0.5
    return sorted(actions, key=lambda a: a.time)


def rolling_failures_script(
    scenario: Scenario,
    broker_ids: Sequence[Hashable],
    crash_ids: Sequence[Hashable],
    *,
    seed: Optional[int] = 0,
) -> List[Action]:
    """Brokers crash and recover one after another while traffic continues.

    Subscriptions register up front; then each broker in ``crash_ids`` goes
    down for 4 time units and recovers, 8 before the next crash.  Publishes
    during a downtime window originate at never-crashed brokers and are *audited
    against the survivors reachable at publish time* — the paper's safety
    claim restricted to the partition the publisher can see.  After the last
    recovery settles, the remaining events are published and audited against
    the full (healed) network.
    """
    downtime = 4.0
    rng = random.Random(seed)
    prefix = f"rolling-{scenario.name}"
    safe_brokers = [b for b in broker_ids if b not in set(crash_ids)]
    if not safe_brokers:
        raise ValueError("rolling_failures_script needs at least one never-crashed broker")
    actions: List[Action] = []
    for i, subscription in enumerate(_subscriptions_of(scenario, prefix)):
        actions.append(
            Action(
                time=rng.uniform(0.0, SUBSCRIBE_WINDOW),
                kind="subscribe",
                broker_id=rng.choice(list(broker_ids)),
                client_id=f"{prefix}-client-{i}",
                subscription=subscription,
            )
        )
    events = _events_of(scenario, prefix)
    downtime_probes = events[: len(events) // 2]
    healed_probes = events[len(events) // 2:]
    probe_iter = iter(downtime_probes)
    t = SUBSCRIBE_WINDOW + SETTLE
    for crash_id in crash_ids:
        actions.append(Action(time=t, kind="crash", broker_id=crash_id))
        # Publishes while the broker is down: audited against reachable
        # survivors.  Deliveries may exceed the snapshot (an event still in
        # flight at recovery time can reach the revived broker's subscribers
        # via the resynced routes) — that surfaces as ``extra``, never as a
        # loss for survivors.
        for k in range(2):
            event = next(probe_iter, None)
            if event is not None:
                actions.append(
                    Action(time=t + downtime * (k + 1) / 3.0, kind="publish",
                           broker_id=rng.choice(safe_brokers), event=event, audit=True)
                )
        actions.append(Action(time=t + downtime, kind="recover", broker_id=crash_id))
        t += downtime + 8.0
    t += SETTLE
    for event in healed_probes:
        actions.append(
            Action(time=t, kind="publish", broker_id=rng.choice(list(broker_ids)),
                   event=event, audit=True)
        )
        t += 0.5
    return sorted(actions, key=lambda a: a.time)


def netsplit_heal_script(
    scenario: Scenario,
    topology: Topology,
    down: Sequence[Hashable],
    *,
    settle: float = SETTLE,
    seed: Optional[int] = 0,
) -> List[Action]:
    """Netsplit → per-partition traffic → heal → reconverged traffic.

    Subscriptions register across the whole overlay; after a settle window a
    first slice of the scenario's events is published and audited on the
    intact network.  Then every broker in ``down`` crashes at one instant —
    when ``down`` severs the overlay (a cut vertex, a region's gateways) the
    survivors split into independent partitions.  During the split the second
    slice of events is published round-robin *inside each live component*
    (planned statically via :meth:`Topology.components_without`), audited
    against the component-restricted ground truth: delivery within each
    partition must stay exact even though the overlay is broken.  12 time
    units after the split, or once the split-phase publishes have settled if
    that is later, the crashed brokers recover (flush-and-refill resync), and
    after a final settle the remaining events are published and audited
    against the healed full network — clean reconvergence.
    """
    down = list(down)
    if not down:
        raise ValueError("netsplit_heal_script needs at least one broker to take down")
    downtime = 12.0
    rng = random.Random(seed)
    prefix = f"netsplit-{scenario.name}"
    broker_ids = topology.broker_ids
    survivors = [b for b in broker_ids if b not in set(down)]
    if not survivors:
        raise ValueError("netsplit_heal_script cannot take every broker down")
    actions: List[Action] = []
    for i, subscription in enumerate(_subscriptions_of(scenario, prefix)):
        actions.append(
            Action(
                time=rng.uniform(0.0, SUBSCRIBE_WINDOW),
                kind="subscribe",
                broker_id=rng.choice(broker_ids),
                client_id=f"{prefix}-client-{i}",
                subscription=subscription,
            )
        )
    events = _events_of(scenario, prefix)
    third = max(1, len(events) // 3)
    pre, split_events, post = events[:third], events[third : 2 * third], events[2 * third :]
    t = SUBSCRIBE_WINDOW + settle
    for event in pre:
        actions.append(
            Action(time=t, kind="publish", broker_id=rng.choice(broker_ids),
                   event=event, audit=True)
        )
        t += 0.5
    # Let the pre-split publishes drain before severing the overlay: an event
    # still in flight across a link that is about to die would (correctly)
    # show up as a missed delivery and muddy the partition audit.
    t += settle
    split_at = t
    for broker_id in down:
        actions.append(Action(time=split_at, kind="crash", broker_id=broker_id))
    components = topology.components_without(down)
    t = split_at + settle
    for i, event in enumerate(split_events):
        component = components[i % len(components)]
        actions.append(
            Action(time=t, kind="publish", broker_id=rng.choice(component),
                   event=event, audit=True)
        )
        t += 0.5
    # Drain the split-phase publishes before healing: an event still in
    # flight at heal time could cross the reconnected boundary and deliver
    # beyond its partition-restricted snapshot (surfacing as ``extra``).
    heal_at = max(t + settle, split_at + downtime)
    for broker_id in down:
        actions.append(Action(time=heal_at, kind="recover", broker_id=broker_id))
    t = heal_at + settle
    for event in post:
        actions.append(
            Action(time=t, kind="publish", broker_id=rng.choice(broker_ids),
                   event=event, audit=True)
        )
        t += 0.5
    return sorted(actions, key=lambda a: a.time)


def region_netsplit_script(
    scenario: Scenario,
    topology: Topology,
    region: Hashable,
    *,
    settle: float = SETTLE,
    seed: Optional[int] = 0,
) -> List[Action]:
    """Netsplit one whole region of a generated topology.

    Crashes only the region's overlay gateways: the region's interior stays
    up but is cut off from the rest of the network — the crash-based model
    of a WAN netsplit, and audited traffic continues on *both* sides of the
    split.  Delegates to :func:`netsplit_heal_script`.
    """
    down = topology.region_gateways(region)
    if not down:
        raise ValueError(f"region {region!r} has no overlay gateway to sever")
    return netsplit_heal_script(scenario, topology, down, settle=settle, seed=seed)


def rolling_upgrade_script(
    scenario: Scenario,
    topology: Topology,
    *,
    seed: Optional[int] = 0,
) -> List[Action]:
    """A rolling upgrade: every broker restarts in sequence under traffic.

    Each broker of the topology, in id order, crashes, stays down for 3 time
    units and recovers, 6 before the next one goes down —
    the overlay is never missing more than one broker at a time, exactly like
    a one-at-a-time fleet upgrade.  While a broker is down one event is
    published from a surviving broker and audited against the partition the
    publisher can reach; after the last recovery settles the remaining
    events are published and audited against the fully-healed network.
    """
    broker_ids = topology.broker_ids
    if len(broker_ids) < 2:
        raise ValueError("rolling_upgrade_script needs a second broker to publish from")
    downtime = 3.0
    rng = random.Random(seed)
    prefix = f"upgrade-{scenario.name}"
    actions: List[Action] = []
    for i, subscription in enumerate(_subscriptions_of(scenario, prefix)):
        actions.append(
            Action(
                time=rng.uniform(0.0, SUBSCRIBE_WINDOW),
                kind="subscribe",
                broker_id=rng.choice(broker_ids),
                client_id=f"{prefix}-client-{i}",
                subscription=subscription,
            )
        )
    events = _events_of(scenario, prefix)
    probe_iter = iter(events[: len(broker_ids)])
    t = SUBSCRIBE_WINDOW + SETTLE
    for broker_id in broker_ids:
        actions.append(Action(time=t, kind="crash", broker_id=broker_id))
        event = next(probe_iter, None)
        if event is not None:
            publisher = rng.choice([b for b in broker_ids if b != broker_id])
            actions.append(
                Action(time=t + downtime / 2.0, kind="publish", broker_id=publisher,
                       event=event, audit=True)
            )
        actions.append(Action(time=t + downtime, kind="recover", broker_id=broker_id))
        t += downtime + 6.0
    t += SETTLE
    for event in events[len(broker_ids) :]:
        actions.append(
            Action(time=t, kind="publish", broker_id=rng.choice(broker_ids),
                   event=event, audit=True)
        )
        t += 0.5
    return sorted(actions, key=lambda a: a.time)


def _broker_usable(network: BrokerNetwork, broker_id) -> bool:
    # A broker that was never registered (e.g. the target of a join that was
    # itself skipped) is just as unusable as a crashed one.
    return broker_id in network.brokers and network.transport.is_up(broker_id)


def _action_skippable(network: BrokerNetwork, action: Action) -> bool:
    """True when the action targets a broker that is down or missing right now.

    Shared by :func:`run_dynamic_scenario` and :func:`run_scripted_lockstep`
    so both runners skip under identical conditions.
    """
    if action.kind in ("subscribe", "subscribe_batch", "publish"):
        return not _broker_usable(network, action.broker_id)
    if action.kind == "unsubscribe":
        home = network.subscription_home(action.sub_id)
        return home is not None and not network.transport.is_up(home)
    if action.kind == "unsubscribe_batch":
        homes = [network.subscription_home(sub_id) for _, sub_id in action.items or ()]
        return all(
            home is not None and not network.transport.is_up(home) for home in homes
        )
    if action.kind == "join":
        return action.broker_id in network.brokers or not _broker_usable(
            network, action.attach_to
        )
    if action.kind == "crash":
        return not _broker_usable(network, action.broker_id)
    if action.kind == "recover":
        return action.broker_id not in network.brokers or network.transport.is_up(
            action.broker_id
        )
    return False


def _apply_action(network: BrokerNetwork, action: Action) -> None:
    """Run one (non-skippable) action against the network.

    Publishes go through ``publish_async`` and batches through the
    ``*_async`` APIs, so this is safe to call from inside a kernel callback;
    the caller decides when to drain.
    """
    if action.kind == "subscribe":
        network.subscribe(action.broker_id, action.client_id, action.subscription)
    elif action.kind == "subscribe_batch":
        network.subscribe_batch_async(action.broker_id, list(action.items or ()))
    elif action.kind == "unsubscribe":
        network.unsubscribe(action.client_id, action.sub_id)
    elif action.kind == "unsubscribe_batch":
        live = [
            (client_id, sub_id)
            for client_id, sub_id in action.items or ()
            if (home := network.subscription_home(sub_id)) is None
            or network.transport.is_up(home)
        ]
        network.unsubscribe_batch_async(live)
    elif action.kind == "publish":
        network.publish_async(action.broker_id, action.event)
    elif action.kind == "crash":
        network.crash_broker(action.broker_id)
    elif action.kind == "recover":
        network.recover_broker(action.broker_id)
    elif action.kind == "join":
        network.join_broker(action.broker_id, action.attach_to)
    else:
        raise ValueError(f"unknown action kind {action.kind!r}")


def run_dynamic_scenario(
    network: BrokerNetwork, actions: Sequence[Action], name: str = "dynamic"
) -> DynamicReport:
    """Schedule ``actions`` on the network's simulated transport and drain it.

    Requires a transport with a kernel (:class:`~repro.sim.transport.SimTransport`).
    Action times are interpreted relative to the kernel's current time, so
    scenarios compose: a second script can run on the same network once the
    first has drained.
    Audited publishes snapshot the ground truth — live subscribers reachable
    from the publishing broker — at publish time; once the kernel drains, the
    report pairs each snapshot with the deliveries that actually happened.
    Actions targeting a broker that is down when they fire are counted as
    skipped rather than crashing the run (scripts avoid this by construction,
    but a hand-written script may race its own churn).
    """
    kernel = getattr(network.transport, "kernel", None)
    if kernel is None:
        raise ValueError(
            "run_dynamic_scenario needs a kernel-backed transport (SimTransport); "
            f"got {type(network.transport).__name__}"
        )
    audits: List[AuditEntry] = []
    counters = {"run": 0, "skipped": 0, "published": 0}
    audited_ids = [
        action.event.event_id for action in actions if action.kind == "publish" and action.audit
    ]
    tracing = network.tracing
    scenario_trace = tracing.trace_id_for("scenario", name) if tracing.enabled else None

    def execute(action: Action) -> None:
        if _action_skippable(network, action):
            counters["skipped"] += 1
            return
        counters["run"] += 1
        if scenario_trace is not None:
            tracing.record(
                Span(
                    trace_id=scenario_trace,
                    kind="phase",
                    name=action.kind,
                    broker_id=action.broker_id,
                    start=kernel.now,
                    detail=make_detail(scenario=name),
                )
            )
        if action.kind == "publish":
            counters["published"] += 1
            if action.audit:
                audits.append(
                    AuditEntry(
                        event_id=action.event.event_id,
                        time=kernel.now,
                        origin=action.broker_id,
                        expected=network.expected_recipients(action.event, origin=action.broker_id),
                    )
                )
        _apply_action(network, action)

    # Action times are relative to the scenario start, so a second scenario
    # can run on the same network after the first has drained.
    start = kernel.now
    for action in actions:
        kernel.schedule_at(start + action.time, execute, action)
    with network.collect_recipients(audited_ids) as delivered_by_event:
        network.flush()
    if scenario_trace is not None:
        # One scenario-level span covering the whole simulated run.
        tracing.record(
            Span(
                trace_id=scenario_trace,
                kind="phase",
                name=name,
                start=start,
                duration=kernel.now - start,
                detail=make_detail(
                    actions_run=counters["run"],
                    actions_skipped=counters["skipped"],
                ),
            )
        )

    for entry in audits:
        entry.delivered = delivered_by_event[entry.event_id]
    return DynamicReport(
        name=name,
        actions_run=counters["run"],
        actions_skipped=counters["skipped"],
        events_published=counters["published"],
        audited_events=len(audits),
        audits=audits,
        transport=network.transport.stats,
    )


def run_scripted_lockstep(network: BrokerNetwork, actions: Sequence[Action]) -> int:
    """Run a script action-by-action, draining the transport between actions.

    Unlike :func:`run_dynamic_scenario`, nothing overlaps in (simulated)
    flight: every action fully propagates before the next fires, so the same
    script leaves any two deterministic transports — synchronous inline
    delivery or a latency/queueing simulation — in the *identical* per-broker
    routing/covering state (the cross-transport equivalence tests pin this
    with :meth:`BrokerNetwork.routing_state`).  Works on any transport; no
    kernel is required.  Actions targeting brokers that are down or missing
    are skipped like in the scenario runner.  Returns the number of actions
    executed.
    """
    executed = 0
    for action in sorted(actions, key=lambda a: a.time):
        if _action_skippable(network, action):
            continue
        _apply_action(network, action)
        executed += 1
        network.flush()
    return executed
