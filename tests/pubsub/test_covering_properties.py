"""Property-based tests of the covering layer and the subscription lifecycle.

Two families of randomized invariants:

* **Soundness** — on random rectangle workloads, no covering strategy the
  broker can be configured with (``exact`` or ``approximate``; the
  probabilistic baseline is unsound by design and excluded) ever reports a
  witness that does not geometrically cover the query.  The oracle is the
  exact per-attribute containment check (``ranges_cover``) — the same
  predicate the linear-scan detector uses.  The profile-driven fast path is
  additionally pinned to return *exactly* the classic search's answer.

* **Lifecycle vs flat oracle** — after any random subscribe/withdraw
  interleaving on a broker tree, each published event must reach exactly the
  clients whose live subscription matches it, as computed by a flat
  single-broker oracle that knows nothing about covering, suppression or
  promotion.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.covering import CoveringProfiler
from repro.geometry.transform import ranges_cover
from repro.index.config import IndexConfig
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.pubsub.routing_table import make_covering_strategy
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


class TestCoveringSoundness:
    @settings(deadline=None)
    @given(rects=st.lists(quantised_rect(), min_size=1, max_size=20), epsilon=st.sampled_from([0.0, 0.05, 0.3]))
    def test_no_unsound_witness_exact_and_approximate(self, rects, epsilon):
        """Any witness a strategy returns really covers the query rectangle."""
        for kind in ("exact", "approximate"):
            strategy = make_covering_strategy(
                kind, SCHEMA, config=IndexConfig(epsilon=epsilon, cube_budget=5_000)
            )
            stored = {}
            for i, ranges in enumerate(rects):
                witness = strategy.find_covering(ranges)
                if witness is not None:
                    assert witness in stored
                    assert ranges_cover(stored[witness], ranges), (
                        f"{kind} returned witness {witness} = {stored[witness]} "
                        f"which does not cover {ranges}"
                    )
                stored[f"s{i}"] = ranges
                strategy.add(f"s{i}", ranges)

    @settings(deadline=None)
    @given(rects=st.lists(quantised_rect(), min_size=2, max_size=15))
    def test_profile_path_replays_classic_search(self, rects):
        """find_covering_profile is a pure amortisation: same witness-or-None."""
        profiler = CoveringProfiler(
            SCHEMA.num_attributes, SCHEMA.order, config=IndexConfig(epsilon=0.05, cube_budget=5_000)
        )
        classic = make_covering_strategy(
            "approximate", SCHEMA, config=IndexConfig(epsilon=0.05, cube_budget=5_000)
        )
        fast = make_covering_strategy(
            "approximate", SCHEMA, config=IndexConfig(epsilon=0.05, cube_budget=5_000)
        )
        for i, ranges in enumerate(rects[:-1]):
            profile = profiler.profile(ranges)
            classic.add(f"s{i}", ranges)
            fast.add_profile(f"s{i}", _wrap(profile, ranges))
        query = rects[-1]
        profile = profiler.profile(query)
        assert classic.find_covering(query) == fast.find_covering_profile(
            _wrap(profile, query)
        )

    @settings(deadline=None)
    @given(rects=st.lists(quantised_rect(), min_size=1, max_size=12))
    def test_exact_strategy_complete_against_oracle(self, rects):
        """The exact strategy finds a cover whenever the oracle says one exists."""
        strategy = make_covering_strategy("exact", SCHEMA)
        stored = {}
        for i, ranges in enumerate(rects):
            witness = strategy.find_covering(ranges)
            oracle_has_cover = any(
                ranges_cover(other, ranges) for other in stored.values()
            )
            assert (witness is not None) == oracle_has_cover
            stored[f"s{i}"] = ranges
            strategy.add(f"s{i}", ranges)


def _wrap(covering_profile, ranges):
    """Minimal SubscriptionProfile stand-in for strategy-level tests."""
    from repro.pubsub.subscription_store import SubscriptionProfile

    return SubscriptionProfile(subscription=None, ranges=tuple(ranges), covering=covering_profile)


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
    @given(script=lifecycle_script(), covering=st.sampled_from(["exact", "approximate"]))
    def test_delivery_matches_flat_oracle_after_interleaving(self, script, covering):
        """After any subscribe/withdraw interleaving, deliveries == flat oracle."""
        ops, events = script
        network = BrokerNetwork.from_topology(
            SCHEMA,
            tree_topology(NUM_BROKERS),
            covering=covering,
            config=IndexConfig(epsilon=0.2, cube_budget=5_000),
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
