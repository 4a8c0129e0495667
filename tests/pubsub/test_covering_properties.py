"""Property-based tests of the covering layer and the subscription lifecycle.

Two families of randomized invariants:

* **Soundness** — on random rectangle workloads, no covering strategy the
  broker can be configured with (every kind in ``COVERING_KINDS``) ever
  reports a witness that does not geometrically cover the query.  The oracle
  is the exact per-attribute containment check (``ranges_cover``) — the same
  predicate the linear-scan detector uses.  A check through a shared
  covering profile is additionally pinned to return *exactly* what a link
  finds by profiling the plain ranges itself, and an unsound kind
  (``probabilistic``) is pinned to be no kind at all.

* **Lifecycle vs flat oracle** — after any random subscribe/withdraw
  interleaving on a broker tree, each published event must reach exactly the
  clients whose live subscription matches it, as computed by a flat
  single-broker oracle that knows nothing about covering, suppression or
  promotion.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cli import main as cli_main
from repro.geometry.transform import ranges_cover
from repro.index.config import IndexConfig
from repro.pubsub.broker import Broker
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.pubsub.routing_table import (
    COVERING_KINDS,
    make_covering_strategy,
    make_profile_cache,
)
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription
from repro.pubsub.subscription_store import SubscriptionProfile

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


def profile_of(cache, ranges):
    """The profile a broker on ``cache`` hands its links for ``ranges``."""
    return SubscriptionProfile(None, ranges, cache.covering_profile(ranges))


class TestCoveringSoundness:
    @settings(deadline=None)
    @given(
        rects=st.lists(quantised_rect(), min_size=1, max_size=20),
        epsilon=st.sampled_from([0.0, 0.05, 0.3]),
        kind=st.sampled_from(COVERING_KINDS),
    )
    def test_no_unsound_witness(self, rects, epsilon, kind):
        """Any witness a routable strategy returns really covers the query rectangle."""
        config = IndexConfig(epsilon=epsilon, cube_budget=5_000)
        cache = make_profile_cache(kind, SCHEMA, config)
        strategy = make_covering_strategy(kind, SCHEMA, config=config)
        stored = {}
        for i, ranges in enumerate(rects):
            witness, _ = strategy.find_covering(profile_of(cache, ranges))
            if witness is not None:
                assert witness in stored
                assert ranges_cover(stored[witness], ranges), (
                    f"{kind} returned witness {witness} = {stored[witness]} "
                    f"which does not cover {ranges}"
                )
            stored[f"s{i}"] = ranges
            strategy.add(f"s{i}", profile_of(cache, ranges))

    @settings(deadline=None)
    @given(rects=st.lists(quantised_rect(), min_size=2, max_size=15))
    def test_shared_profile_replays_own_profile(self, rects):
        """A shared covering profile is a pure amortisation: the witness-or-None
        a link finds when it profiles the plain ranges itself."""
        config = IndexConfig(epsilon=0.05, cube_budget=5_000)
        shared = make_profile_cache("approximate", SCHEMA, config)
        bare = make_profile_cache("exact", SCHEMA)
        own = make_covering_strategy("approximate", SCHEMA, config=config)
        fast = make_covering_strategy("approximate", SCHEMA, config=config)
        for i, ranges in enumerate(rects[:-1]):
            own.add(f"s{i}", profile_of(bare, ranges))
            fast.add(f"s{i}", profile_of(shared, ranges))
        query = rects[-1]
        assert own.find_covering(profile_of(bare, query))[0] == fast.find_covering(
            profile_of(shared, query)
        )[0]

    @settings(deadline=None)
    @given(rects=st.lists(quantised_rect(), min_size=1, max_size=12))
    def test_exact_strategy_complete_against_oracle(self, rects):
        """The exact strategy finds a cover whenever the oracle says one exists."""
        cache = make_profile_cache("exact", SCHEMA)
        strategy = make_covering_strategy("exact", SCHEMA)
        stored = {}
        for i, ranges in enumerate(rects):
            witness, _ = strategy.find_covering(profile_of(cache, ranges))
            oracle_has_cover = any(
                ranges_cover(other, ranges) for other in stored.values()
            )
            assert (witness is not None) == oracle_has_cover
            stored[f"s{i}"] = ranges
            strategy.add(f"s{i}", profile_of(cache, ranges))


def test_only_sound_covering_is_routable():
    """``probabilistic`` is no covering kind, and its knobs are no parameters."""
    assert COVERING_KINDS == ("none", "exact", "approximate")
    builders = {
        "Broker": lambda **kw: Broker(broker_id=0, schema=SCHEMA, **kw),
        "BrokerNetwork": lambda **kw: BrokerNetwork(SCHEMA, **kw),
        "from_topology": lambda **kw: BrokerNetwork.from_topology(
            SCHEMA, tree_topology(3), **kw
        ),
        "make_covering_strategy": lambda **kw: make_covering_strategy(
            kw.pop("covering", "approximate"), SCHEMA, **kw
        ),
    }
    for build in builders.values():
        build()
        with pytest.raises(ValueError, match="unknown covering strategy"):
            build(covering="probabilistic")
        with pytest.raises(TypeError):
            build(samples=8)
    for name in ("Broker", "make_covering_strategy"):
        with pytest.raises(TypeError):
            builders[name](seed=1)
    assert BrokerNetwork(SCHEMA, seed=1).seed == 1  # the trace log's seed stays
    with pytest.raises(SystemExit):
        cli_main(["serve", "--covering", "probabilistic"])


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
