"""Tests for the synthetic workload generators."""

from __future__ import annotations

import itertools

import pytest

from repro.geometry.rect import aspect_ratio
from repro.geometry.transform import ranges_cover
from repro.workloads.generators import (
    EventWorkload,
    SubscriptionWorkload,
    covering_chain,
    random_extremal_lengths,
)
from repro.workloads.scenarios import (
    auction_scenario,
    sensor_network_scenario,
    stock_market_scenario,
)


class TestSubscriptionWorkload:
    def test_generates_requested_count_with_unique_ids(self):
        workload = SubscriptionWorkload(attributes=2, attribute_order=8, seed=1)
        specs = workload.generate(50)
        assert len(specs) == 50
        assert len({s.sub_id for s in specs}) == 50

    def test_ranges_are_valid(self):
        workload = SubscriptionWorkload(attributes=3, attribute_order=6, seed=2)
        for spec in workload.generate(100):
            assert len(spec.ranges) == 3
            for lo, hi in spec.ranges:
                assert 0 <= lo <= hi <= 63

    def test_deterministic_given_seed(self):
        a = SubscriptionWorkload(attributes=2, attribute_order=8, seed=42).generate(20)
        b = SubscriptionWorkload(attributes=2, attribute_order=8, seed=42).generate(20)
        assert a == b

    def test_different_seeds_differ(self):
        a = SubscriptionWorkload(attributes=2, attribute_order=8, seed=1).generate(20)
        b = SubscriptionWorkload(attributes=2, attribute_order=8, seed=2).generate(20)
        assert a != b

    def test_width_fraction_controls_width(self):
        narrow = SubscriptionWorkload(
            attributes=1, attribute_order=10, width_fraction=0.05, width_jitter=0.0, seed=3
        ).generate(50)
        wide = SubscriptionWorkload(
            attributes=1, attribute_order=10, width_fraction=0.5, width_jitter=0.0, seed=3
        ).generate(50)
        mean_narrow = sum(hi - lo + 1 for s in narrow for lo, hi in s.ranges) / 50
        mean_wide = sum(hi - lo + 1 for s in wide for lo, hi in s.ranges) / 50
        assert mean_wide > 5 * mean_narrow

    def test_aspect_skew_produces_skewed_widths(self):
        workload = SubscriptionWorkload(
            attributes=2, attribute_order=10, width_fraction=0.3, width_jitter=0.0,
            aspect_skew=4, seed=4,
        )
        for spec in workload.generate(30):
            widths = sorted(hi - lo + 1 for lo, hi in spec.ranges)
            assert widths[0] * 8 <= widths[1]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SubscriptionWorkload(attributes=0, attribute_order=8)
        with pytest.raises(ValueError):
            SubscriptionWorkload(attributes=1, attribute_order=0)
        with pytest.raises(ValueError):
            SubscriptionWorkload(attributes=1, attribute_order=8, width_fraction=0.0)
        with pytest.raises(ValueError):
            SubscriptionWorkload(attributes=1, attribute_order=8).generate(-1)


class TestEventWorkload:
    def test_events_within_domain(self):
        workload = EventWorkload(attributes=3, attribute_order=6, seed=1)
        for cells in workload.generate(100):
            assert len(cells) == 3
            assert all(0 <= c <= 63 for c in cells)


class TestCoveringChain:
    def test_chain_is_nested(self):
        chain = covering_chain(attributes=3, attribute_order=8, depth=6, seed=1)
        assert len(chain) == 6
        for outer, inner in itertools.pairwise(chain):
            assert ranges_cover(outer.ranges, inner.ranges)

    def test_first_element_covers_all(self):
        chain = covering_chain(attributes=2, attribute_order=8, depth=5, seed=2)
        for later in chain[1:]:
            assert ranges_cover(chain[0].ranges, later.ranges)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            covering_chain(attributes=2, attribute_order=8, depth=0)


class TestRandomExtremalLengths:
    def test_aspect_ratio_is_exact(self):
        for alpha in (0, 1, 3):
            lengths = random_extremal_lengths(dims=4, order=10, alpha=alpha, seed=alpha)
            assert aspect_ratio(lengths) == alpha

    def test_lengths_within_universe(self):
        lengths = random_extremal_lengths(dims=3, order=6, alpha=2, seed=1)
        assert all(1 <= v <= 64 for v in lengths)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            random_extremal_lengths(dims=0, order=5)
        with pytest.raises(ValueError):
            random_extremal_lengths(dims=2, order=5, alpha=-1)
        with pytest.raises(ValueError):
            random_extremal_lengths(dims=2, order=3, alpha=5)


class TestScenarios:
    @pytest.mark.parametrize(
        "factory", [stock_market_scenario, sensor_network_scenario, auction_scenario]
    )
    def test_scenarios_produce_consistent_workloads(self, factory):
        scenario = factory(num_subscriptions=30, num_events=20, seed=1)
        assert len(scenario.subscriptions) == 30
        assert len(scenario.events) == 20
        names = set(scenario.schema.names)
        for constraints in scenario.subscriptions:
            assert constraints, "every subscription constrains at least one attribute"
            assert set(constraints) <= names
            for low, high in constraints.values():
                assert low <= high
        for event in scenario.events:
            assert set(event) == names

    def test_scenarios_are_deterministic(self):
        a = stock_market_scenario(num_subscriptions=10, num_events=5, seed=3)
        b = stock_market_scenario(num_subscriptions=10, num_events=5, seed=3)
        assert a.subscriptions == b.subscriptions
        assert a.events == b.events

    def test_stock_market_has_covering_pairs(self):
        """The stock scenario is built so that some subscriptions cover others."""
        from repro.pubsub.subscription import Subscription

        scenario = stock_market_scenario(num_subscriptions=120, seed=5)
        subs = [Subscription(scenario.schema, c) for c in scenario.subscriptions]
        covering_pairs = sum(
            1
            for a in subs
            for b in subs
            if a is not b and a.covers(b)
        )
        assert covering_pairs > 0
