"""Tests for the dynamic workload scripts and their simulated execution."""

from __future__ import annotations

import pytest

from repro.index.config import IndexConfig
from repro.pubsub import BrokerNetwork, tree_topology
from repro.sim import SimTransport, UniformJitterLatency
from repro.workloads.dynamics import (
    flash_crowd_script,
    region_netsplit_script,
    rolling_failures_script,
    run_dynamic_scenario,
    subscription_churn_script,
)
from repro.workloads.scenarios import (
    auction_scenario,
    sensor_network_scenario,
    stock_market_scenario,
)

NUM_BROKERS = 7
BROKER_IDS = list(range(NUM_BROKERS))


def small_scenario(factory, seed=5):
    return factory(num_subscriptions=24, num_events=16, order=8, seed=seed)


def make_network(scenario, seed=9):
    return BrokerNetwork.from_topology(
        scenario.schema,
        tree_topology(NUM_BROKERS),
        covering="approximate",
        config=IndexConfig(),
        transport=SimTransport(
            UniformJitterLatency(0.2, 0.4), inbox_capacity=8, service_time=0.02, seed=seed
        ),
    )


class TestScriptShapes:
    def test_actions_sorted_and_deterministic(self):
        scenario = small_scenario(sensor_network_scenario)
        script_a = flash_crowd_script(scenario, BROKER_IDS, seed=3)
        script_b = flash_crowd_script(scenario, BROKER_IDS, seed=3)
        assert script_a == script_b
        assert all(a.time <= b.time for a, b in zip(script_a, script_a[1:]))

    def test_flash_crowd_has_simultaneous_burst(self):
        scenario = small_scenario(sensor_network_scenario)
        script = flash_crowd_script(scenario, BROKER_IDS, burst_fraction=0.5, seed=3)
        publish_times = [a.time for a in script if a.kind == "publish"]
        burst_time = max(publish_times)
        assert publish_times.count(burst_time) >= len(scenario.events) // 2
        assert all(a.audit for a in script if a.kind == "publish")

    def test_churn_storm_flips_subscriptions(self):
        scenario = small_scenario(stock_market_scenario)
        script = subscription_churn_script(scenario, BROKER_IDS, seed=3)
        lifecycle = ("subscribe", "subscribe_batch", "unsubscribe", "unsubscribe_batch")
        unsubscribed = sum(
            len(a.items) if a.kind == "unsubscribe_batch" else 1
            for a in script
            if a.kind in ("unsubscribe", "unsubscribe_batch")
        )
        subscribed = sum(
            len(a.items) if a.kind == "subscribe_batch" else 1
            for a in script
            if a.kind in ("subscribe", "subscribe_batch")
        )
        assert unsubscribed == len(scenario.subscriptions) // 2
        assert subscribed == len(scenario.subscriptions)
        # The storm rides the batch APIs (PR 3): at least one batch action.
        assert any(a.kind in ("subscribe_batch", "unsubscribe_batch") for a in script)
        # Audited publishes come only after the storm has settled.
        storm_end = max(a.time for a in script if a.kind in lifecycle)
        for action in script:
            if action.kind == "publish" and action.audit:
                assert action.time > storm_end

    def test_churn_storm_batch_size_one_is_per_subscription(self):
        scenario = small_scenario(stock_market_scenario)
        script = subscription_churn_script(scenario, BROKER_IDS, seed=3, batch_size=1)
        assert not any(a.kind in ("subscribe_batch", "unsubscribe_batch") for a in script)
        kinds = [a.kind for a in script]
        assert kinds.count("unsubscribe") == len(scenario.subscriptions) // 2
        assert kinds.count("subscribe") == len(scenario.subscriptions)

    def test_rolling_failures_pairs_crash_and_recover(self):
        scenario = small_scenario(auction_scenario)
        script = rolling_failures_script(scenario, BROKER_IDS, crash_ids=[6, 5], seed=3)
        crashes = [a for a in script if a.kind == "crash"]
        recovers = [a for a in script if a.kind == "recover"]
        assert [a.broker_id for a in crashes] == [6, 5]
        assert [a.broker_id for a in recovers] == [6, 5]
        for crash, recover in zip(crashes, recovers):
            assert recover.time > crash.time

    def test_rolling_failures_needs_a_survivor(self):
        scenario = small_scenario(auction_scenario)
        with pytest.raises(ValueError):
            rolling_failures_script(scenario, [0, 1], crash_ids=[0, 1], seed=3)


class TestExecution:
    def test_runner_requires_kernel_transport(self):
        scenario = small_scenario(sensor_network_scenario)
        network = BrokerNetwork.from_topology(scenario.schema, tree_topology(3))
        with pytest.raises(ValueError):
            run_dynamic_scenario(network, flash_crowd_script(scenario, [0, 1, 2]))

    @pytest.mark.parametrize(
        "factory", [stock_market_scenario, sensor_network_scenario, auction_scenario]
    )
    def test_flash_crowd_clean_on_every_application_scenario(self, factory):
        scenario = small_scenario(factory)
        network = make_network(scenario)
        report = run_dynamic_scenario(
            network, flash_crowd_script(scenario, BROKER_IDS, seed=3), name="flash"
        )
        assert report.clean and report.extra_deliveries == 0
        assert report.audited_events == len(scenario.events)
        assert report.transport is network.transport.stats
        assert report.transport.delivery_latencies

    def test_churn_storm_with_join_clean(self):
        scenario = small_scenario(stock_market_scenario)
        network = make_network(scenario)
        script = subscription_churn_script(
            scenario, BROKER_IDS, join_broker="late", seed=3
        )
        report = run_dynamic_scenario(network, script, name="churn")
        assert report.clean
        assert "late" in network.brokers
        assert report.actions_skipped == 0

    def test_rolling_failures_clean_for_survivors(self):
        scenario = small_scenario(sensor_network_scenario)
        network = make_network(scenario)
        script = rolling_failures_script(scenario, BROKER_IDS, crash_ids=[6, 5], seed=3)
        report = run_dynamic_scenario(network, script, name="rolling")
        assert report.clean
        resynced = sum(
            broker.stats.subscriptions_resynced for broker in network.brokers.values()
        )
        assert resynced > 0

    def test_report_summary_row_shape(self):
        scenario = small_scenario(sensor_network_scenario)
        network = make_network(scenario)
        report = run_dynamic_scenario(
            network, flash_crowd_script(scenario, BROKER_IDS, seed=3), name="flash"
        )
        row = report.summary_row()
        for key in ("scenario", "missed_deliveries", "latency_p50", "max_queue_depth"):
            assert key in row

    def test_scenarios_compose_on_one_network(self):
        # Action times are relative to the kernel clock, so a second script
        # can run on the same network after the first drains.
        scenario = small_scenario(sensor_network_scenario)
        network = make_network(scenario)
        first = run_dynamic_scenario(
            network, flash_crowd_script(scenario, BROKER_IDS, seed=3), name="first"
        )
        follow_up = small_scenario(sensor_network_scenario, seed=8)
        second = run_dynamic_scenario(
            network,
            rolling_failures_script(follow_up, BROKER_IDS, crash_ids=[6], seed=4),
            name="second",
        )
        assert first.clean and second.clean

    def test_identical_runs_byte_identical(self):
        scenario = small_scenario(sensor_network_scenario)

        def run():
            network = make_network(scenario, seed=13)
            report = run_dynamic_scenario(
                network,
                subscription_churn_script(scenario, BROKER_IDS, seed=3),
                name="churn",
            )
            return repr(network.deliveries) + repr(sorted(report.summary_row().items()))

        assert run() == run()


def test_region_netsplit_crashes_exactly_the_region_gateways():
    """The region's interior stays up: the script crashes (and recovers) its
    overlay gateways and nothing else; a region with no gateway is refused."""
    from repro.workloads.topologies import skewed_tree_topology

    scenario = small_scenario(stock_market_scenario)
    topology = skewed_tree_topology(12, skew=1.0, seed=9)
    for region in topology.region_ids():
        gateways = topology.region_gateways(region)
        if not gateways:
            with pytest.raises(ValueError, match="no overlay gateway"):
                region_netsplit_script(scenario, topology, region, seed=3)
            continue
        script = region_netsplit_script(scenario, topology, region, seed=3)
        for kind in ("crash", "recover"):
            assert sorted(
                (a.broker_id for a in script if a.kind == kind), key=str
            ) == gateways, (region, kind)
    with pytest.raises(ValueError, match="no overlay gateway"):
        region_netsplit_script(scenario, topology, "no-such-region", seed=3)
