"""The bounded per-operation logs: what they keep, and that no result reads them.

A network keeps the most recent :data:`repro.sim.transport.RETENTION`
deliveries (``BrokerNetwork.deliveries``) and latency and hop samples
(``TransportStats``); their counters still count everything.  ``publish``,
``publish_batch`` and ``run_dynamic_scenario`` collect recipients as deliveries land, so with the
retention shrunk to a handful of records — the log wrapping many times over —
every result must equal the one an unshrunk network returns.
"""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sim.transport as transport_module
from repro.index.config import IndexConfig
from repro.pubsub import (
    Attribute,
    AttributeSchema,
    BrokerNetwork,
    DeliveryLog,
    DeliveryRecord,
    Event,
    Subscription,
    tree_topology,
)
from repro.sim import SimTransport, UniformJitterLatency
from repro.workloads.dynamics import run_dynamic_scenario, subscription_churn_script
from repro.workloads.scenarios import sensor_network_scenario

SMALL = 8


@pytest.fixture
def small_retention(monkeypatch):
    """Shrink the shared retention; only logs built afterwards see it."""
    monkeypatch.setattr(transport_module, "RETENTION", SMALL)
    return SMALL


def record(number: int) -> DeliveryRecord:
    return DeliveryRecord(f"c{number}", f"s{number}", f"e{number}", float(number))


def log_one(log: DeliveryLog, number: int) -> None:
    """Record ``record(number)`` as a visit with one delivery."""
    log.extend([f"c{number}"], [f"s{number}"], f"e{number}", float(number))


#: One visit: the (client, subscription id) pairs it delivers, then its event
#: id and time.  Small alphabets, so clients and ids repeat across visits.
visits = st.tuples(
    st.lists(
        st.tuples(st.sampled_from("abc"), st.sampled_from(["s1", "s2", "s3"])),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from(["e1", "e2"]),
    st.sampled_from([0.0, 0.5, 2.0]),
)


class TestDeliveryLog:
    def test_record_repr_is_the_dataclass_repr(self):
        assert repr(DeliveryRecord("a", "s", "e")) == (
            "DeliveryRecord(client_id='a', subscription_id='s', event_id='e', time=0.0)"
        )
        assert not hasattr(DeliveryRecord("a", "s", "e"), "__dict__")

    def test_len_counts_every_record_and_iteration_keeps_the_newest(self, small_retention):
        log = DeliveryLog()
        for number in range(3 * SMALL + 3):
            log_one(log, number)
            assert len(log) == number + 1
        assert list(log) == [record(n) for n in range(2 * SMALL + 3, 3 * SMALL + 3)]

    def test_equality_and_repr_are_deterministic(self, small_retention):
        def filled(count):
            log = DeliveryLog()
            for number in range(count):
                log_one(log, number)
            return log

        assert filled(SMALL + 3) == filled(SMALL + 3)
        assert repr(filled(SMALL + 3)) == repr(filled(SMALL + 3))
        assert filled(2) != filled(3)
        assert repr(filled(SMALL + 3)).startswith(f"DeliveryLog(total={SMALL + 3}, retained=[")

    @settings(
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture]
    )
    @given(batches=st.lists(visits, max_size=12))
    def test_visits_recorded_in_columns_equal_a_window_of_records(
        self, small_retention, batches
    ):
        # Batches of up to 5 against a window of 8: most sequences wrap the
        # window, many in the middle of a batch.
        log, twin = DeliveryLog(), DeliveryLog()
        reference = deque(maxlen=SMALL)
        total = 0
        for pairs, event_id, time in batches:
            clients = [client for client, _ in pairs]
            sub_ids = [sub_id for _, sub_id in pairs]
            log.extend(clients, sub_ids, event_id, time)
            twin.extend(list(clients), list(sub_ids), event_id, time)
            reference.extend(
                DeliveryRecord(client, sub_id, event_id, time) for client, sub_id in pairs
            )
            total += len(pairs)
            assert len(log) == total
            assert list(log) == list(reference)
            assert log == twin
            assert repr(log) == f"DeliveryLog(total={total}, retained={list(reference)!r})"
        if batches:
            other = DeliveryLog()
            other.extend(["z"], ["s9"], "e9", 9.0)
            assert log != other


def make_sync_network(seed=5):
    schema = AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=6
    )
    network = BrokerNetwork.from_topology(
        schema, tree_topology(7), seed=seed
    )
    rng = random.Random(seed)
    for number in range(40):
        lo_x, lo_y = rng.uniform(0, 60), rng.uniform(0, 60)
        network.subscribe(
            rng.randrange(7),
            f"c{number % 17}",
            Subscription(
                schema,
                {"x": (lo_x, lo_x + rng.uniform(20, 40)), "y": (lo_y, lo_y + rng.uniform(20, 40))},
                sub_id=f"s{number}",
            ),
        )
    events = [
        Event(schema, {"x": rng.uniform(0, 100), "y": rng.uniform(0, 100)}, event_id=f"e{n}")
        for n in range(60)
    ]
    return network, events


class TestResultsNeverReadTheLog:
    def _publish_everything(self, network, events):
        singles = [network.publish(n % 7, event) for n, event in enumerate(events[:30])]
        batch = network.publish_batch(3, events[30:])
        return singles, batch

    def test_publish_and_publish_batch_after_the_log_wraps(self, monkeypatch):
        reference = self._publish_everything(*make_sync_network())
        monkeypatch.setattr(transport_module, "RETENTION", SMALL)
        network, events = make_sync_network()
        singles, batch = self._publish_everything(network, events)
        assert len(network.deliveries) > 4 * SMALL
        assert len(list(network.deliveries)) == SMALL
        assert (singles, batch) == reference
        for n, (event, delivered) in enumerate(zip(events, singles + batch)):
            origin = n % 7 if n < 30 else 3
            assert delivered == network.expected_recipients(event, origin=origin)

    def test_nested_collection_sees_only_its_own_deliveries(self):
        network, events = make_sync_network()
        event = next(event for event in events if network.expected_recipients(event))
        with network.collect_recipients([event.event_id]) as outer:
            first = network.publish(0, event)
            assert first
            assert outer[event.event_id] == first
            with network.collect_recipients([event.event_id]) as inner:
                second = network.publish(4, event)
            assert inner[event.event_id] == second
        assert outer[event.event_id] == first | second
        assert not network._collecting

    def test_dynamic_scenario_after_the_log_wraps(self, monkeypatch):
        def run():
            scenario = sensor_network_scenario(
                num_subscriptions=24, num_events=16, order=8, seed=5
            )
            network = BrokerNetwork.from_topology(
                scenario.schema,
                tree_topology(7),
                covering="approximate",
                config=IndexConfig(epsilon=0.2, cube_budget=20_000),
                transport=SimTransport(
                    UniformJitterLatency(0.2, 0.4), inbox_capacity=8, service_time=0.02, seed=9
                ),
            )
            report = run_dynamic_scenario(
                network, subscription_churn_script(scenario, list(range(7)), seed=3)
            )
            audits = [(entry.event_id, entry.expected, entry.delivered) for entry in report.audits]
            return network, report, audits

        _, reference_report, reference = run()
        monkeypatch.setattr(transport_module, "RETENTION", SMALL)
        network, report, audits = run()
        assert len(network.deliveries) > 3 * SMALL
        assert report.clean and reference_report.clean
        assert audits == reference


class TestEveryLogIsBounded:
    def test_windows_stay_bounded(self, small_retention):
        network, events = make_sync_network()
        for n, event in enumerate(events):
            network.publish(n % 7, event)
        stats = network.transport.stats
        assert stats.deliveries == len(network.deliveries) > 4 * SMALL
        assert stats.as_dict()["deliveries"] == stats.deliveries
        assert len(stats.delivery_latencies) == SMALL
        assert len(stats.hop_counts) == len(stats.hop_latencies) == SMALL
