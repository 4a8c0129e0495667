"""Local delivery through the local table: same records, fewer tests, one key.

A broker hands an event to its clients by probing the ``LOCAL_INTERFACE``
table (its match index under ``matching="sfc"``) and mapping the matched ids
to their owners, and an :class:`Event` remembers its curve key between the
brokers that see the same object.  Three things are pinned here:

* the ``network.deliveries`` sequence equals what the client-by-client scan
  the broker used to run would have produced (:class:`ScanModel` is a
  test-local copy of it), under both matching kinds and every curve, while
  local tables grow and shrink and brokers crash and recover;
* counts, never timings: one publish keys its event once, and a broker
  holding 64 local subscriptions tests fewer than 64 rectangles;
* the key memo is invisible: equality, hash, pickling, wire bytes and a
  second network under another curve never see it.
"""

from __future__ import annotations

import itertools
import pickle
import random
from typing import Dict, Hashable, List, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.config import IndexConfig
from repro.net.protocol import encode_event
from repro.pubsub import BrokerNetwork, Event, Subscription
from repro.pubsub.broker import LOCAL_INTERFACE
from repro.pubsub.network import chain_topology, tree_topology
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.sfc.factory import CURVE_KINDS, curve_class

ORDER = 5  # 32 × 32 cells: dense overlap between random rectangles
BROKERS = 3
CLIENTS_PER_BROKER = 3


def _schema() -> AttributeSchema:
    return AttributeSchema(
        [Attribute("x", 0.0, 32.0), Attribute("y", 0.0, 32.0)], order=ORDER
    )


def _subscription(schema, sub_id, lo_x, w_x, lo_y, w_y) -> Subscription:
    return Subscription(
        schema,
        {
            "x": (float(lo_x), float(min(32, lo_x + w_x))),
            "y": (float(lo_y), float(min(32, lo_y + w_y))),
        },
        sub_id=sub_id,
    )


def _event(schema, event_id, x, y) -> Event:
    return Event(schema, {"x": x + 0.5, "y": y + 0.5}, event_id=event_id)


class ScanModel:
    """The delivery scan ``Broker._deliver_locally`` ran before this table probe.

    Per broker: clients in first-registration order (a client keeps its place
    once it has one), each with its subscriptions in arrival order; an event
    goes to each client once, under the first of its subscriptions that
    matches.
    """

    def __init__(self) -> None:
        self._clients: Dict[Hashable, Dict[Hashable, List[Subscription]]] = {}

    def subscribe(self, broker, client, subscription) -> None:
        self._clients.setdefault(broker, {}).setdefault(client, []).append(subscription)

    def unsubscribe(self, broker, client, sub_id) -> None:
        subscriptions = self._clients[broker][client]
        subscriptions.remove(next(s for s in subscriptions if s.sub_id == sub_id))

    def entries(self, broker) -> int:
        return sum(len(subs) for subs in self._clients.get(broker, {}).values())

    def deliveries(self, broker, event) -> List[Tuple[Hashable, Hashable]]:
        records = []
        for client, subscriptions in self._clients.get(broker, {}).items():
            for subscription in subscriptions:
                if subscription.matches(event):
                    records.append((client, subscription.sub_id))
                    break
        return records


def publish_and_compare(network, model, origin, event) -> int:
    """Publish; the records of each broker reached must be the scan's, in order."""
    before = len(network.deliveries)
    network.publish(origin, event)
    records = network.deliveries[before:]
    assert all(record.event_id == event.event_id for record in records)
    homes = [network.client_home(record.client_id) for record in records]
    # One broker's records are contiguous: it delivers in one receive_event.
    assert len([home for home, _ in itertools.groupby(homes)]) == len(set(homes))
    got: Dict[Hashable, list] = {}
    for home, record in zip(homes, records):
        got.setdefault(home, []).append((record.client_id, record.subscription_id))
    expected = {
        broker: model.deliveries(broker, event)
        for broker in network.reachable_brokers(origin)
    }
    assert got == {broker: found for broker, found in expected.items() if found}
    return len(records)


_rect = st.tuples(
    st.integers(0, 25), st.integers(1, 16), st.integers(0, 25), st.integers(1, 16)
)
_placed = st.tuples(st.integers(0, CLIENTS_PER_BROKER - 1), _rect)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sub"), st.integers(0, BROKERS - 1), _placed),
        st.tuples(
            st.just("sub_batch"),
            st.integers(0, BROKERS - 1),
            st.lists(_placed, min_size=1, max_size=6),
        ),
        st.tuples(st.just("unsub"), st.integers(0, 1000)),
        st.tuples(st.just("unsub_batch"), st.lists(st.integers(0, 1000), min_size=1, max_size=4)),
        st.tuples(
            st.just("pub"), st.integers(0, BROKERS - 1), st.integers(0, 31), st.integers(0, 31)
        ),
        st.tuples(st.just("crash"), st.integers(0, BROKERS - 1)),
        st.tuples(st.just("recover"), st.integers(0, BROKERS - 1)),
    ),
    min_size=5,
    max_size=40,
)


@given(
    ops=_ops,
    matching=st.sampled_from(["linear", "sfc"]),
    curve=st.sampled_from(CURVE_KINDS),
)
def test_delivery_records_equal_the_scan(ops, matching, curve):
    schema = _schema()
    network = BrokerNetwork.from_topology(
        schema, chain_topology(BROKERS), matching=matching, config=IndexConfig(curve=curve), seed=3
    )
    model = ScanModel()
    live: List[Tuple[Hashable, Hashable, Hashable]] = []  # (broker, client, sub_id)
    counter = itertools.count()

    def place(broker, items):
        placed = []
        for client_index, rect in items:
            client = f"b{broker}/c{client_index}"
            subscription = _subscription(schema, f"s{next(counter)}", *rect)
            placed.append((client, subscription))
            model.subscribe(broker, client, subscription)
            live.append((broker, client, subscription.sub_id))
        return placed

    def withdrawable(picks):
        """Distinct live subscriptions homed at brokers that are up."""
        candidates = [entry for entry in live if network.transport.is_up(entry[0])]
        chosen = []
        for pick in picks:
            if candidates:
                chosen.append(candidates.pop(pick % len(candidates)))
        for entry in chosen:
            live.remove(entry)
            model.unsubscribe(*entry)
        return [(client, sub_id) for _, client, sub_id in chosen]

    for op in ops:
        kind = op[0]
        if kind in ("sub", "sub_batch") and not network.transport.is_up(op[1]):
            continue
        if kind == "sub":
            [(client, subscription)] = place(op[1], [op[2]])
            network.subscribe(op[1], client, subscription)
        elif kind == "sub_batch":
            network.subscribe_batch(op[1], place(op[1], op[2]))
        elif kind == "unsub":
            for client, sub_id in withdrawable([op[1]]):
                assert network.unsubscribe(client, sub_id) is True
        elif kind == "unsub_batch":
            pairs = withdrawable(op[1])
            assert network.unsubscribe_batch(pairs) == [True] * len(pairs)
        elif kind == "pub":
            _, origin, x, y = op
            if network.transport.is_up(origin):
                publish_and_compare(
                    network, model, origin, _event(schema, f"e{next(counter)}", x, y)
                )
        elif kind == "crash":
            if network.transport.is_up(op[1]) and len(network.live_brokers()) > 1:
                network.crash_broker(op[1])
        elif kind == "recover":
            if not network.transport.is_up(op[1]):
                network.recover_broker(op[1])
    for broker in sorted(set(network.brokers) - network.live_brokers()):
        network.recover_broker(broker)
    for origin in range(BROKERS):
        for x, y in ((3, 3), (12, 20), (28, 9)):
            publish_and_compare(network, model, origin, _event(schema, f"e{next(counter)}", x, y))


@pytest.mark.parametrize("curve", CURVE_KINDS)
@pytest.mark.parametrize("matching", ["linear", "sfc"])
def test_delivery_records_equal_the_scan_from_empty_to_forty_and_back(matching, curve):
    """One broker's local table walks 0 → 40 → 0 entries, probed at every size.

    Forty crosses every regime of the flat store (all pending, first rebuild,
    tombstones, compaction).
    """
    schema = _schema()
    network = BrokerNetwork.from_topology(
        schema, chain_topology(BROKERS), matching=matching, config=IndexConfig(curve=curve), seed=3
    )
    model = ScanModel()
    rng = random.Random(40)
    probes = [(rng.randrange(32), rng.randrange(32)) for _ in range(6)]
    events = itertools.count()
    live = []

    def probe():
        return sum(
            publish_and_compare(network, model, 0, _event(schema, f"e{next(events)}", x, y))
            for x, y in probes
        )

    assert probe() == 0
    delivered = 0
    for i in range(40):
        client = f"b2/c{rng.randrange(5)}"
        subscription = _subscription(
            schema, f"s{i}", rng.randrange(26), rng.randrange(4, 17),
            rng.randrange(26), rng.randrange(4, 17),
        )
        model.subscribe(2, client, subscription)
        live.append((client, subscription.sub_id))
        network.subscribe(2, client, subscription)
        delivered += probe()
    assert model.entries(2) == 40 and delivered > 0
    rng.shuffle(live)
    for client, sub_id in live:
        model.unsubscribe(2, client, sub_id)
        assert network.unsubscribe(client, sub_id) is True
        probe()
    assert model.entries(2) == 0 and probe() == 0
    assert network.routing_table_entries() == 0


def test_unowned_local_table_entry_delivers_nothing():
    """A subscription injected on the local interface has no client to go to."""
    schema = _schema()
    for matching in ("linear", "sfc"):
        network = BrokerNetwork.from_topology(schema, chain_topology(2), matching=matching)
        network.brokers[0].receive_subscription(
            LOCAL_INTERFACE, _subscription(schema, "orphan", 0, 32, 0, 32)
        )
        network.subscribe(0, "alice", _subscription(schema, "a", 0, 16, 0, 16))
        assert network.publish(1, _event(schema, "e1", 20, 20)) == set()
        assert network.publish(1, _event(schema, "e2", 5, 5)) == {"alice"}
        assert [record.subscription_id for record in network.deliveries] == ["a"]


class TestCounts:
    """Work done per publish, as counts (no timings)."""

    @pytest.fixture
    def tree(self):
        schema = _schema()
        network = BrokerNetwork.from_topology(schema, tree_topology(7), matching="sfc", seed=1)
        for broker in range(7):
            network.subscribe(broker, f"all{broker}", _subscription(schema, f"all{broker}", 0, 32, 0, 32))
        # 63 more at broker 3: an 8 × 8 grid of 4 × 4 tiles (minus one corner).
        tiles = [(4 * i, 4 * j) for i in range(8) for j in range(8)][:63]
        network.subscribe_batch(
            3, [(f"t{n}", _subscription(schema, f"t{n}", x, 3, y, 3)) for n, (x, y) in enumerate(tiles)]
        )
        assert len(network.brokers[3].routing_table.table(LOCAL_INTERFACE)) == 64
        return schema, network

    def test_one_publish_keys_its_event_once(self, tree, monkeypatch):
        schema, network = tree
        calls = []
        curve = curve_class(network.config.curve)
        original = curve.key
        monkeypatch.setattr(
            curve, "key", lambda self, point: calls.append(point) or original(self, point)
        )
        received = sum(broker.stats.events_received for broker in network.brokers.values())
        event = _event(schema, "e", 9, 9)
        delivered = network.publish(0, event)
        assert delivered == network.expected_recipients(event) and len(delivered) == 8
        reached = sum(broker.stats.events_received for broker in network.brokers.values()) - received
        assert reached == 7
        assert len(calls) == 1

    def test_sixty_four_local_subscriptions_take_fewer_than_sixty_four_tests(self, tree):
        schema, network = tree
        broker = network.brokers[3]
        before = broker.stats.match_tests
        assert network.publish_and_audit(6, _event(schema, "e", 9, 9)) == (set(), set())
        tests = broker.stats.match_tests - before
        assert 2 <= tests < 64  # at least the two that match


class TestKeyMemoIsInvisible:
    def _networks(self, schema):
        networks = {}
        for curve in ("zorder", "hilbert"):
            network = BrokerNetwork.from_topology(
                schema, chain_topology(3), matching="sfc", config=IndexConfig(curve=curve)
            )
            rng = random.Random(11)
            for i in range(30):
                network.subscribe(
                    i % 3, f"b{i % 3}/c{i % 7}",
                    _subscription(schema, f"s{i}", rng.randrange(26), rng.randrange(2, 10),
                                  rng.randrange(26), rng.randrange(2, 10)),
                )
            networks[curve] = network
        return networks

    def test_one_event_object_through_two_curves(self):
        """Z and Hilbert keys of a cell differ; each network must read its own."""
        schema = _schema()
        networks = self._networks(schema)
        rng = random.Random(5)
        delivered = 0
        for i in range(60):
            event = _event(schema, f"e{i}", rng.randrange(32), rng.randrange(32))
            for curve in ("zorder", "hilbert", "zorder"):
                missed, extra = networks[curve].publish_and_audit(i % 3, event)
                assert (missed, extra) == (set(), set()), curve
            delivered += len(networks["hilbert"].expected_recipients(event))
        assert delivered > 0

    def test_equality_hash_pickle_and_wire_bytes_ignore_the_memo(self):
        schema = _schema()
        network = self._networks(schema)["zorder"]
        event = _event(schema, "e", 7, 21)
        twin = _event(schema, "e", 7, 21)

        def hashed(obj):
            # An Event holds a dict, so hash() raises; what it does must not change.
            try:
                return hash(obj)
            except TypeError as exc:
                return str(exc)

        wire = encode_event(event)
        pickled = pickle.dumps(event)
        text = repr(event)
        expected = network.expected_recipients(event)
        assert expected and network.publish(0, event) == expected
        assert event.curve_key(("zorder", 2, ORDER)) is not None
        assert event == twin and repr(event) == text and hashed(event) == hashed(twin)
        assert encode_event(event) == wire
        assert pickle.dumps(event) == pickled
        restored = pickle.loads(pickle.dumps(event))
        # (Schemas compare by identity, so a restored event never == its source.)
        assert (restored.event_id, restored.values, restored.cells) == (
            event.event_id, event.values, event.cells
        )
        assert restored.curve_key(("zorder", 2, ORDER)) is None
        assert network.publish(2, restored) == expected

    def test_batch_keying_fills_the_same_memo(self):
        schema = _schema()
        network = self._networks(schema)["hilbert"]
        events = [_event(schema, f"e{i}", i, 31 - i) for i in range(8)]
        delivered = network.publish_batch(1, events)
        tag = ("hilbert", 2, ORDER)
        curve = network.brokers[1].routing_table.table(LOCAL_INTERFACE).match_index.curve
        for event, clients in zip(events, delivered):
            assert event.curve_key(tag) == curve.key(event.cells)
            assert clients == network.expected_recipients(event)
