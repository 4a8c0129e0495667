"""The routing covering check as a join that picks its side before building anything.

A link's forwarded set is compared directly while it holds no more
subscriptions than the query's probe schedule has cubes, and probed along the
schedule above that (``ApproximateCoveringDetector.find_covering_profile``).
Pinned here:

* **Differential** — while every link stays below the plan size,
  ``covering="approximate"`` makes the forwarding decisions of
  ``covering="exact"``: equal ``routing_state()`` and equal lifecycle counters
  on random subscribe / batch / withdraw / crash / recover scripts.
* **Across the crossover** — with an 8-cube budget links move between the two
  sides in both directions during churn; suppressions stay sound, audits stay
  clean, the link strategy answers as its detector, and the join never finds
  fewer covers than the plan executed on its own.
* **Count guards** — a subscribe into small links builds no schedule at all,
  and the size a plan announces from the census is the number of cubes an
  exhausted execution examines.
* **Lazy index** — on a sync tree and a simulated grid, through churn with
  promotions: below the crossover a forward or withdrawal keys nothing and
  no link builds its dominance index; with an 8-cube budget each link that
  crosses over builds it exactly once, and only those links do.
"""

from __future__ import annotations

import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx_dominance import ApproximateDominanceIndex, build_dominance_plan
from repro.core.covering import ApproximateCoveringDetector, CoveringProfiler
from repro.geometry.transform import ranges_cover
from repro.geometry.universe import Universe
from repro.index.config import IndexConfig
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.pubsub.subscription import Event, Subscription
from repro.pubsub.subscription_store import SubscriptionProfile
from repro.sfc.factory import CURVE_KINDS, curve_class, make_curve
from repro.sim.latency import FixedLatency
from repro.sim.transport import SimTransport
from repro.workloads.dynamics import Action, run_scripted_lockstep
from repro.workloads.scenarios import stock_market_scenario
from repro.workloads.topologies import grid_cluster_topology
from test_covering_properties import (
    MAX_CELL,
    SCHEMA,
    quantised_rect,
    rect_subscription,
)
from test_curve_differential import assert_suppression_sound

NUM_BROKERS = 7

#: The ``BrokerStats`` counters a forwarding decision moves.
LIFECYCLE_COUNTERS = (
    "subscriptions_received",
    "subscriptions_stored",
    "subscriptions_forwarded",
    "subscriptions_suppressed",
    "subscriptions_resynced",
    "promotions",
    "covering_checks",
    "covering_check_runs",
)


# ------------------------------------------------------------ (i) differential
def random_lifecycle_script(subscriptions, seed):
    """Subscribe / batch / withdraw / crash / recover steps in a seeded random order."""
    rng = random.Random(seed)
    pending = list(subscriptions)
    rng.shuffle(pending)
    live = []
    down = None
    actions = []

    def emit(kind, **fields):
        actions.append(Action(time=float(len(actions)), kind=kind, **fields))

    while pending or len(live) > 4:
        roll = rng.random()
        if pending and roll < 0.35:
            sub = pending.pop()
            live.append(sub)
            emit(
                "subscribe",
                broker_id=rng.randrange(NUM_BROKERS),
                client_id=f"c-{sub.sub_id}",
                subscription=sub,
            )
        elif len(pending) >= 3 and roll < 0.5:
            batch = [pending.pop() for _ in range(3)]
            live.extend(batch)
            emit(
                "subscribe_batch",
                broker_id=rng.randrange(NUM_BROKERS),
                items=tuple((f"c-{sub.sub_id}", sub) for sub in batch),
            )
        elif live and roll < 0.7:
            sub = live.pop(rng.randrange(len(live)))
            emit("unsubscribe", client_id=f"c-{sub.sub_id}", sub_id=sub.sub_id)
        elif len(live) >= 3 and roll < 0.8:
            batch = [live.pop(rng.randrange(len(live))) for _ in range(3)]
            emit(
                "unsubscribe_batch",
                items=tuple((f"c-{sub.sub_id}", sub.sub_id) for sub in batch),
            )
        elif down is None and roll < 0.9:
            down = rng.randrange(NUM_BROKERS)
            emit("crash", broker_id=down)
        elif down is not None:
            emit("recover", broker_id=down)
            down = None
    if down is not None:
        emit("recover", broker_id=down)
    return actions


@pytest.mark.parametrize("curve", CURVE_KINDS)
@pytest.mark.parametrize("transport_kind", ["sync", "sim"])
def test_small_links_decide_as_exact_covering(curve, transport_kind):
    scenario = stock_market_scenario(num_subscriptions=36, num_events=1, order=7, seed=11)
    config = IndexConfig(curve=curve)
    subscriptions = [
        Subscription(scenario.schema, constraints, sub_id=f"s{i}")
        for i, constraints in enumerate(scenario.subscriptions)
    ]
    # The precondition: no link can outgrow any plan, so every check compares.
    profiler = CoveringProfiler(scenario.schema.num_attributes, scenario.schema.order, config)
    assert all(
        profiler.profile(sub.ranges).plan.cubes >= len(subscriptions) for sub in subscriptions
    )
    for seed in range(4):
        script = random_lifecycle_script(subscriptions, seed)
        assert {action.kind for action in script} >= {
            "subscribe", "subscribe_batch", "unsubscribe", "unsubscribe_batch",
            "crash", "recover",
        }
        approximate, exact = (
            BrokerNetwork.from_topology(
                scenario.schema,
                tree_topology(NUM_BROKERS),
                covering=covering,
                config=config,
                transport=(
                    SimTransport(FixedLatency(0.05), seed=5)
                    if transport_kind == "sim"
                    else None
                ),
            )
            for covering in ("approximate", "exact")
        )
        for action in script:
            run_scripted_lockstep(approximate, [action])
            run_scripted_lockstep(exact, [action])
            assert approximate.routing_state() == exact.routing_state(), action.kind
        for broker_id, broker in approximate.brokers.items():
            ours = broker.stats.as_dict()
            theirs = exact.brokers[broker_id].stats.as_dict()
            assert {name: ours[name] for name in LIFECYCLE_COUNTERS} == {
                name: theirs[name] for name in LIFECYCLE_COUNTERS
            }
        assert sum(b.stats.subscriptions_suppressed for b in exact.brokers.values()) > 0
        assert sum(b.stats.promotions for b in exact.brokers.values()) > 0


# ----------------------------------------------------- (ii) across the crossover
#: Plans of at most 8 cubes: a link of 0–30 forwarded crosses that both ways.
CROSSOVER_CONFIG = IndexConfig(cube_budget=8)


@st.composite
def churn_script(draw):
    """Up to 30 subscribes with withdrawals interleaved; ends by withdrawing most."""
    count = draw(st.integers(min_value=4, max_value=30))
    steps = []
    live = []
    for i in range(count):
        steps.append(("subscribe", i, draw(quantised_rect()), draw(st.integers(0, 2))))
        live.append(i)
        if len(live) > 1 and draw(st.booleans()):
            steps.append(("unsubscribe", live.pop(draw(st.integers(0, len(live) - 1)))))
    while len(live) > 2:
        steps.append(("unsubscribe", live.pop(draw(st.integers(0, len(live) - 1)))))
    return steps


def check_links(network, probe_ranges, sides):
    """Soundness of every suppression, and the join against the plan alone, link by link."""
    assert_suppression_sound(network)
    for broker in network.brokers.values():
        for strategy in broker._forwarded.values():
            detector = strategy._detector
            covering = detector.profile(probe_ranges)
            result = detector.find_covering_profile(covering)
            sides.add(result.query is None)
            assert (result.query is None) == (len(detector) <= covering.plan.cubes)
            through_profile = strategy.find_covering(
                SubscriptionProfile(None, probe_ranges, covering)
            )
            assert through_profile == result.covering_id
            if result.covered:
                assert ranges_cover(detector.subscription(result.covering_id), probe_ranges)
            if detector.find_covering(probe_ranges).covered:
                assert result.covered  # never fewer covers than the plan alone


def run_churn(steps, sides):
    network = BrokerNetwork.from_topology(
        SCHEMA,
        tree_topology(3),
        covering="approximate",
        config=CROSSOVER_CONFIG,
    )
    for number, step in enumerate(steps):
        if step[0] == "subscribe":
            _, i, ranges, broker_id = step
            network.subscribe(broker_id, f"c{i}", rect_subscription(ranges, f"s{i}"))
            probe = ranges
        else:
            network.unsubscribe(f"c{step[1]}", f"s{step[1]}")
            probe = ((number % MAX_CELL, MAX_CELL), (0, MAX_CELL - number % MAX_CELL))
        check_links(network, probe, sides)
        event = Event(
            SCHEMA,
            {"x": float((number * 7) % MAX_CELL), "y": float((number * 11) % MAX_CELL)},
            event_id=f"e{number}",
        )
        assert network.publish_and_audit(number % 3, event) == (set(), set())
    return network


@settings(deadline=None)
@given(steps=churn_script())
def test_crossing_the_plan_size_keeps_covering_sound(steps):
    run_churn(steps, set())


def test_links_cross_the_plan_size_in_both_directions():
    """A seeded grow-then-drain run: compared, then probed, then compared again."""
    rng = random.Random(4)
    steps = []
    for i in range(30):
        lo_x, lo_y = rng.randrange(40), rng.randrange(40)
        ranges = ((lo_x, lo_x + rng.randrange(1, 24)), (lo_y, lo_y + rng.randrange(1, 24)))
        steps.append(("subscribe", i, ranges, 0))
    grow_sides, drain_sides = set(), set()
    network = run_churn(steps, grow_sides)
    assert grow_sides == {True, False}
    link = network.brokers[0]._forwarded[1]._detector
    assert len(link) > CROSSOVER_CONFIG.cube_budget
    for i in range(30):
        network.unsubscribe(f"c{i}", f"s{i}")
        check_links(network, ((10, 20), (10, 20)), drain_sides)
    assert len(link) == 0
    assert drain_sides == {True, False}


# ------------------------------------------------------------ (iii) count guards
def test_subscribe_into_small_links_builds_no_schedule():
    scenario = stock_market_scenario(num_subscriptions=60, num_events=1, seed=1)
    network = BrokerNetwork.from_topology(
        scenario.schema, tree_topology(NUM_BROKERS), covering="approximate"
    )
    for i, constraints in enumerate(scenario.subscriptions):
        network.subscribe(
            i % NUM_BROKERS, f"c{i}", Subscription(scenario.schema, constraints, sub_id=f"s{i}")
        )
    profiles = 0
    for broker in network.brokers.values():
        assert all(len(forwarded) <= 60 for forwarded in broker._forwarded_ids.values())
        for i in range(len(scenario.subscriptions)):
            profile = broker._store.get(f"s{i}")
            if profile is not None:
                profiles += 1
                assert profile.covering.plan.materialised_steps() == 0
    assert profiles >= len(scenario.subscriptions)
    assert sum(b.stats.subscriptions_suppressed for b in network.brokers.values()) > 0


@pytest.mark.parametrize("curve_kind", CURVE_KINDS)
def test_census_count_is_what_an_exhausted_execution_examines(curve_kind):
    universe = Universe(dims=4, order=5)
    curve = make_curve(curve_kind, universe)
    rng = random.Random(9)
    points = [tuple(rng.randrange(universe.side) for _ in range(universe.dims)) for _ in range(8)]
    points += [(0,) * universe.dims, (universe.side - 1,) * universe.dims]
    for budget in (1, 64, 65, 2_000):
        empty = ApproximateDominanceIndex(
            universe=universe, curve=curve, cube_budget=budget
        )
        for epsilon in (0.0, 0.05, 0.3):
            for point in points:
                plan = build_dominance_plan(
                    universe, point, epsilon=epsilon, cube_budget=budget, curve=curve
                )
                assert plan.materialised_steps() == 0
                assert 1 <= plan.cubes <= budget
                result = empty.execute_plan(plan)
                assert result.cubes_examined == plan.cubes
                assert result.termination == plan.final_termination


# ------------------------------------------- (iv) a link's index is built on first probe
def lazy_index_network(transport_kind, config):
    """A sync 7-broker tree or a simulated 12-broker grid of clusters."""
    if transport_kind == "sync":
        return BrokerNetwork.from_topology(
            SCHEMA, tree_topology(NUM_BROKERS), covering="approximate",
            config=config,
        )
    topology = grid_cluster_topology(2, 2, 3)
    return BrokerNetwork.from_topology(
        SCHEMA, topology.overlay, covering="approximate", config=config,
        transport=SimTransport(topology.latency_model(), seed=3), nodes=topology.broker_ids,
    )


def run_promoting_churn(network, seed, on_write):
    """Narrow subscriptions under wide ones, the wide ones withdrawn first.

    Each subscribe or withdrawal runs to quiescence inside ``on_write``; an
    audited publish follows it.  Returns the promotions the run caused.
    """
    rng = random.Random(seed)
    brokers = sorted(network.brokers, key=str)
    for i in range(48):
        if i % 6 == 0:
            lo_x, lo_y = rng.randrange(8), rng.randrange(8)
            ranges = ((lo_x, lo_x + 40 + rng.randrange(16)), (lo_y, lo_y + 40 + rng.randrange(16)))
        else:
            lo_x, lo_y = rng.randrange(10, 40), rng.randrange(10, 40)
            ranges = ((lo_x, lo_x + rng.randrange(1, 8)), (lo_y, lo_y + rng.randrange(1, 8)))
        on_write(network.subscribe, rng.choice(brokers), f"c{i}", rect_subscription(ranges, f"s{i}"))
    # Wide subscriptions go first, so the narrow ones they covered are promoted.
    for i in sorted(range(48), key=lambda i: (i % 6 != 0, rng.random()))[:30]:
        on_write(network.unsubscribe, f"c{i}", f"s{i}")
        event = Event(
            SCHEMA, {"x": float(rng.randrange(MAX_CELL)), "y": float(rng.randrange(MAX_CELL))},
            event_id=f"e{i}",
        )
        assert network.publish_and_audit(rng.choice(brokers), event) == (set(), set())
    return sum(broker.stats.promotions for broker in network.brokers.values())


def link_detectors(network):
    return [
        strategy._detector
        for broker in network.brokers.values()
        for strategy in broker._forwarded.values()
    ]


@pytest.mark.parametrize("transport_kind", ["sync", "sim"])
def test_forwards_and_withdrawals_key_nothing_below_the_crossover(monkeypatch, transport_kind):
    """At the default budget no link outgrows a plan: subscribe and unsubscribe
    compute no curve key, and no link's detector builds its index."""
    network = lazy_index_network(transport_kind, IndexConfig())
    # The match side keys its grid run table once per process, on first use.
    network.subscribe(0, "warm-up", rect_subscription(((0, 1), (0, 1)), "warm-up"))
    network.unsubscribe("warm-up", "warm-up")
    network.flush()
    keyed = []

    def counting(method):
        def wrapper(*args, **kwargs):
            keyed.append(method.__name__)
            return method(*args, **kwargs)
        return wrapper

    for cls in map(curve_class, CURVE_KINDS):
        for name in ("key", "keys"):
            monkeypatch.setattr(cls, name, counting(getattr(cls, name)))
    during_writes = []

    def on_write(operation, *args):
        before = len(keyed)
        operation(*args)
        network.flush()
        during_writes.append(len(keyed) - before)

    assert run_promoting_churn(network, 5, on_write) > 0
    assert len(during_writes) == 78 and not any(during_writes)
    assert keyed  # publishes still key their events
    detectors = link_detectors(network)
    assert detectors and all(detector._index is None for detector in detectors)


@pytest.mark.parametrize("transport_kind", ["sync", "sim"])
def test_each_link_that_crosses_over_builds_its_index_once(monkeypatch, transport_kind):
    builds = collections.Counter()
    crossed = set()
    index = ApproximateCoveringDetector.index
    check = ApproximateCoveringDetector.find_covering_profile

    def counting_index(detector):
        if detector._index is None:
            builds[id(detector)] += 1
        return index.fget(detector)

    def noting_check(detector, profile):
        if len(detector) > profile.plan.cubes:
            crossed.add(id(detector))
        return check(detector, profile)

    monkeypatch.setattr(ApproximateCoveringDetector, "index", property(counting_index))
    monkeypatch.setattr(ApproximateCoveringDetector, "find_covering_profile", noting_check)
    network = lazy_index_network(transport_kind, CROSSOVER_CONFIG)

    def on_write(operation, *args):
        operation(*args)
        network.flush()

    assert run_promoting_churn(network, 5, on_write) > 0
    assert crossed and set(builds) == crossed
    assert set(builds.values()) == {1}
    for detector in link_detectors(network):
        assert (detector._index is not None) == (id(detector) in crossed)
    assert len(crossed) < len(link_detectors(network))  # some links never crossed
