"""Property-based tests of the covering layer and the subscription lifecycle.

Two families of randomized invariants:

* **Soundness** — on random rectangle workloads, under every covering kind a
  broker can be configured with (``COVERING_KINDS``), no broker link records
  a cover that does not geometrically cover the suppressed subscription.  The
  oracle is the exact per-attribute containment check (``ranges_cover``) —
  the same predicate the linear-scan detector uses.  A link's witness is
  additionally pinned to be *exactly* what a stand-alone exact scan of its
  forwarded set returns, and an unsound kind (``probabilistic``) is pinned to
  be no kind at all.

* **Lifecycle vs flat oracle** — after any random subscribe/withdraw
  interleaving on a broker tree, each published event must reach exactly the
  clients whose live subscription matches it, as computed by a flat
  single-broker oracle that knows nothing about covering, suppression or
  promotion.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.linear_scan import LinearScanCoveringDetector
from repro.geometry.transform import ranges_cover
from repro.index.config import IndexConfig
from repro.pubsub.broker import Broker
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.pubsub.routing_table import COVERING_KINDS
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription

ORDER = 6
MAX_CELL = (1 << ORDER) - 1
NUM_BROKERS = 5

SCHEMA = AttributeSchema(
    [Attribute("x", 0.0, float(MAX_CELL)), Attribute("y", 0.0, float(MAX_CELL))],
    order=ORDER,
)


@st.composite
def quantised_rect(draw):
    """One subscription rectangle as quantised per-attribute cell ranges."""
    ranges = []
    for _ in range(SCHEMA.num_attributes):
        lo = draw(st.integers(min_value=0, max_value=MAX_CELL))
        hi = draw(st.integers(min_value=lo, max_value=MAX_CELL))
        ranges.append((lo, hi))
    return tuple(ranges)


def rect_subscription(ranges, sub_id):
    """Build a Subscription whose quantised ranges are exactly ``ranges``."""
    constraints = {
        name: (
            SCHEMA.dequantize_value(name, lo),
            SCHEMA.dequantize_value(name, hi),
        )
        for name, (lo, hi) in zip(SCHEMA.names, ranges)
    }
    subscription = Subscription(SCHEMA, constraints, sub_id=sub_id)
    assert subscription.ranges == ranges  # dequantize/quantize round-trip
    return subscription


def link_broker(covering, config=None):
    """A broker with one neighbour (1); its sends are collected, not delivered."""
    broker = Broker(broker_id=0, schema=SCHEMA, covering=covering, config=config)
    broker.connect(1)
    broker.attach_transport(SimpleNamespace(send=lambda *message: None), lambda *delivery: None)
    return broker


class TestCoveringSoundness:
    @settings(deadline=None)
    @given(
        rects=st.lists(quantised_rect(), min_size=1, max_size=20),
        kind=st.sampled_from(COVERING_KINDS),
    )
    def test_no_unsound_witness(self, rects, kind):
        """Any cover a broker link records for a suppression really covers it."""
        broker = link_broker(kind, IndexConfig())
        link = broker._links[1]
        for i, ranges in enumerate(rects):
            broker.subscribe_local(f"c{i}", rect_subscription(ranges, f"s{i}"))
            entry = link.suppressed.get(f"s{i}")
            if entry is not None:
                witness = entry[1]
                assert witness in link.forwarded
                assert ranges_cover(link.forwarded[witness].ranges, ranges), (
                    f"{kind} recorded cover {witness} = {link.forwarded[witness].ranges} "
                    f"which does not cover {ranges}"
                )

    @settings(deadline=None)
    @given(rects=st.lists(quantised_rect(), min_size=2, max_size=15))
    def test_shared_profile_replays_own_profile(self, rects):
        """A link's witness is what a stand-alone exact scan of its forwarded
        set returns: the first forwarded cover, in forwarding order."""
        broker = link_broker("approximate")
        link = broker._links[1]
        for i, ranges in enumerate(rects[:-1]):
            broker.subscribe_local(f"c{i}", rect_subscription(ranges, f"s{i}"))
        scan = LinearScanCoveringDetector(SCHEMA.num_attributes, SCHEMA.order)
        for sub_id, subscription in link.forwarded.items():
            scan.add_subscription(sub_id, subscription.ranges)
        query = rects[-1]
        expected = scan.find_covering(query)
        broker.subscribe_local("query", rect_subscription(query, "query"))
        entry = link.suppressed.get("query")
        assert (entry[1] if entry is not None else None) == expected

    @settings(deadline=None)
    @given(rects=st.lists(quantised_rect(), min_size=1, max_size=12))
    def test_exact_strategy_complete_against_oracle(self, rects):
        """A covering link (one exact scan) suppresses exactly when an earlier
        subscription covers the arrival (one covering a suppressed one covers
        it too)."""
        broker = link_broker("approximate")
        link = broker._links[1]
        stored = {}
        for i, ranges in enumerate(rects):
            oracle_has_cover = any(ranges_cover(other, ranges) for other in stored.values())
            broker.subscribe_local(f"c{i}", rect_subscription(ranges, f"s{i}"))
            assert (f"s{i}" in link.suppressed) == oracle_has_cover
            stored[f"s{i}"] = ranges


@pytest.mark.parametrize("kind", ["probabilistic", "exact"])
def test_only_sound_covering_is_routable(kind):
    """``probabilistic`` is no covering kind, and its knobs are no parameters;
    ``exact`` ran the scan ``approximate`` runs and is no kind either."""
    assert COVERING_KINDS == ("none", "approximate")
    builders = {
        "Broker": lambda **kw: Broker(broker_id=0, schema=SCHEMA, **kw),
        "BrokerNetwork": lambda **kw: BrokerNetwork(SCHEMA, **kw),
        "from_topology": lambda **kw: BrokerNetwork.from_topology(
            SCHEMA, tree_topology(3), **kw
        ),
    }
    for build in builders.values():
        build()
        with pytest.raises(ValueError, match="unknown covering strategy"):
            build(covering=kind)
        with pytest.raises(TypeError):
            build(samples=8)
    with pytest.raises(TypeError):
        builders["Broker"](seed=1)
    assert BrokerNetwork(SCHEMA, seed=1).seed == 1  # the trace log's seed stays


@st.composite
def lifecycle_script(draw):
    """A random subscribe/withdraw interleaving plus probe events."""
    num_subs = draw(st.integers(min_value=2, max_value=14))
    subs = []
    for i in range(num_subs):
        ranges = draw(quantised_rect())
        broker = draw(st.integers(min_value=0, max_value=NUM_BROKERS - 1))
        subs.append((i, ranges, broker))
    # Interleave withdrawals: each withdraws an earlier subscription index.
    withdrawals = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_subs - 1),
            max_size=num_subs,
            unique=True,
        )
    )
    # Positions after which each withdrawal fires (so they interleave).
    ops = [("sub", s) for s in subs]
    for w in withdrawals:
        position = draw(st.integers(min_value=w + 1, max_value=num_subs))
        ops.insert(min(position + len(ops) - num_subs, len(ops)), ("unsub", w))
    events = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=MAX_CELL),
                st.integers(min_value=0, max_value=MAX_CELL),
                st.integers(min_value=0, max_value=NUM_BROKERS - 1),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return ops, events


class TestLifecycleDeliveryOracle:
    @settings(deadline=None)
    @given(script=lifecycle_script(), covering=st.sampled_from(COVERING_KINDS))
    def test_delivery_matches_flat_oracle_after_interleaving(self, script, covering):
        """After any subscribe/withdraw interleaving, deliveries == flat oracle."""
        ops, events = script
        network = BrokerNetwork.from_topology(
            SCHEMA,
            tree_topology(NUM_BROKERS),
            covering=covering,
            config=IndexConfig(),
        )
        live = {}
        for op, payload in ops:
            if op == "sub":
                index, ranges, broker = payload
                subscription = rect_subscription(ranges, f"s{index}")
                network.subscribe(broker, f"c{index}", subscription)
                live[f"c{index}"] = subscription
            else:
                live.pop(f"c{payload}", None)
                network.unsubscribe(f"c{payload}", f"s{payload}")
        for x, y, origin in events:
            event = Event(
                SCHEMA,
                {
                    "x": SCHEMA.dequantize_value("x", x),
                    "y": SCHEMA.dequantize_value("y", y),
                },
            )
            delivered = network.publish(origin, event)
            oracle = {
                client
                for client, subscription in live.items()
                if subscription.matches(event)
            }
            assert delivered == oracle
