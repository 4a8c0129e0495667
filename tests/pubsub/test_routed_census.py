"""A routed covering check runs a plan's census only when a link could outgrow the plan.

``ApproximateCoveringDetector.find_covering_profile`` compares a link holding
no more subscriptions than the profile's ``cubes_floor`` without reading the
plan; only a fuller link reads ``plan.cubes`` and so builds the census.
Pinned here, counting with ``CoveringProfiler.plans_built``:

* at ``IndexConfig()`` a stock subscribe / unsubscribe script on a 7-broker
  tree builds no census anywhere, and leaves the routing state of
  ``covering="exact"`` after every step;
* at an 8-cube budget the census is built by exactly the checks against a
  link holding more than the profile's floor — once per profile, the first
  time — on a sync tree and a simulated grid.
"""

from __future__ import annotations

import random

import pytest

from repro.core.covering import ApproximateCoveringDetector
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.pubsub.subscription import Subscription
from repro.workloads.scenarios import stock_market_scenario
from test_covering_join import (
    CROSSOVER_CONFIG,
    NUM_BROKERS,
    lazy_index_network,
    link_detectors,
    run_promoting_churn,
)


def plans_built(network):
    """Censuses run by the network's shared profiler and by every link detector's own."""
    return network.profile_cache.profiler.plans_built + sum(
        detector._profiler.plans_built for detector in link_detectors(network)
    )


def test_stock_script_at_the_product_config_builds_no_census():
    scenario = stock_market_scenario(num_subscriptions=80, num_events=1, seed=3)
    subscriptions = [
        Subscription(scenario.schema, constraints, sub_id=f"s{i}")
        for i, constraints in enumerate(scenario.subscriptions)
    ]
    approximate, exact = (
        BrokerNetwork.from_topology(scenario.schema, tree_topology(NUM_BROKERS), covering=covering)
        for covering in ("approximate", "exact")
    )
    rng = random.Random(7)
    live = []

    def step(operation, *args):
        for network in (approximate, exact):
            getattr(network, operation)(*args)
        assert approximate.routing_state() == exact.routing_state(), operation

    for sub in subscriptions:
        step("subscribe", rng.randrange(NUM_BROKERS), f"c-{sub.sub_id}", sub)
        live.append(sub)
        if len(live) > 8 and rng.random() < 0.4:
            gone = live.pop(rng.randrange(len(live)))
            step("unsubscribe", f"c-{gone.sub_id}", gone.sub_id)
    while live:
        gone = live.pop(rng.randrange(len(live)))
        step("unsubscribe", f"c-{gone.sub_id}", gone.sub_id)
    stats = [broker.stats for broker in exact.brokers.values()]
    assert sum(s.subscriptions_suppressed for s in stats) > 0
    assert sum(s.promotions for s in stats) > 0
    assert approximate.profile_cache.misses > 0
    assert plans_built(approximate) == 0


@pytest.mark.parametrize("transport_kind", ["sync", "sim"])
def test_census_is_built_exactly_when_a_link_outgrows_the_floor(monkeypatch, transport_kind):
    check = ApproximateCoveringDetector.find_covering_profile
    built = set()
    kept = []  # holds every checked profile, so no id is reused
    sides = set()

    def noting_check(detector, profile):
        kept.append(profile)
        needs_census = len(detector) > profile.cubes_floor
        sides.add(needs_census)
        before = profile.profiler.plans_built
        result = check(detector, profile)
        assert profile.profiler.plans_built - before == (needs_census and id(profile) not in built)
        if needs_census:
            built.add(id(profile))
        return result

    monkeypatch.setattr(ApproximateCoveringDetector, "find_covering_profile", noting_check)
    network = lazy_index_network(transport_kind, CROSSOVER_CONFIG)

    def on_write(operation, *args):
        operation(*args)
        network.flush()

    assert run_promoting_churn(network, 5, on_write) > 0
    assert sides == {True, False}
    assert plans_built(network) == len(built) > 0
