"""Cross-curve differential suite: Z-order, Hilbert and Gray agree on semantics.

The routing stack is curve-pluggable — the match index, the approximate
covering detector and the shared profile cache are all keyed by a
``SpaceFillingCurve`` — and the paper's machinery guarantees that the choice
can only change *statistics* (run counts, segment counts, probe costs), never
*semantics*: match answers are restored to exactness by the rectangle
fallback check, and covering witnesses are verified dominators regardless of
the probe order that found them.

This suite pins that claim end to end:

* identical scripted workloads (``run_scripted_lockstep``) on tree/chain/star
  × sync/sim leave every curve with the same per-event delivery sets as the
  linear-scan/flat oracle, and clean audits;
* with exact covering, the learnt routing state is byte-identical across
  curves (the curve then only touches event matching, which is exact);
* suppression decisions are sound under every curve — each recorded cover
  really covers its dependant (``ranges_cover`` oracle);
* a hypothesis harness drives random subscribe/publish/withdraw interleavings
  through all three curves against the flat oracle;
* the per-curve match index stabs exactly the points each rectangle contains
  even under run-budget coarsening (rectangle-fallback soundness);
* mis-configuration fails loudly: unknown curve kinds, curves over the wrong
  universe, and cross-curve plan execution all raise instead of mis-keying.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx_dominance import ApproximateDominanceIndex, build_dominance_plan
from repro.core.covering import (
    OFFLINE_CONFIG,
    ApproximateCoveringDetector,
    CoveringProfiler,
)
from repro.geometry.transform import ranges_cover
from repro.geometry.universe import Universe
from repro.index.config import IndexConfig
from repro.pubsub.match_index import MatchIndex
from repro.pubsub.network import (
    BrokerNetwork,
    chain_topology,
    star_topology,
    tree_topology,
)
from repro.pubsub.routing_table import make_covering_strategy
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription
from repro.sfc.factory import CURVE_KINDS, make_curve
from repro.sim.latency import FixedLatency
from repro.sim.transport import SimTransport
from repro.workloads.dynamics import run_scripted_lockstep, subscription_churn_script
from repro.workloads.scenarios import stock_market_scenario

NUM_BROKERS = 7
BROKER_IDS = list(range(NUM_BROKERS))

TOPOLOGIES = {
    "tree": tree_topology,
    "chain": chain_topology,
    "star": star_topology,
}


def small_scenario():
    return stock_market_scenario(num_subscriptions=30, num_events=16, order=7, seed=7)


def make_network(schema, topology, transport_kind, curve, covering="approximate"):
    transport = (
        SimTransport(FixedLatency(0.05), seed=5) if transport_kind == "sim" else None
    )
    return BrokerNetwork.from_topology(
        schema,
        TOPOLOGIES[topology](NUM_BROKERS),
        covering=covering,
        config=IndexConfig(epsilon=0.2, cube_budget=500, curve=curve),
        matching="sfc",
        transport=transport,
    )


def deliveries_by_event(network):
    """Normalised {event_id: frozenset(client_id)} over everything delivered."""
    out = {}
    for record in network.deliveries:
        out.setdefault(record.event_id, set()).add(record.client_id)
    return {event_id: frozenset(clients) for event_id, clients in out.items()}


def assert_suppression_sound(network):
    """Every suppressed subscription's recorded cover must really cover it."""
    for broker in network.brokers.values():
        for neighbor_id, suppressed in broker._suppressed.items():
            for sub_id, subscription in suppressed.items():
                cover_id = broker._cover_of[neighbor_id][sub_id]
                cover = broker._forwarded_ids[neighbor_id].get(cover_id)
                assert cover is not None, (
                    f"broker {broker.broker_id}: {sub_id} suppressed behind "
                    f"{cover_id}, which was never forwarded on {neighbor_id}"
                )
                assert ranges_cover(cover.ranges, subscription.ranges), (
                    f"broker {broker.broker_id}: recorded cover {cover_id} does "
                    f"not cover {sub_id} — unsound suppression"
                )


class TestScriptedLockstepDifferential:
    """Identical scripts under every curve ⇒ identical delivery semantics."""

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("transport_kind", ["sync", "sim"])
    def test_churn_storm_deliveries_match_oracle(self, topology, transport_kind):
        scenario = small_scenario()
        script = subscription_churn_script(scenario, BROKER_IDS, seed=3)
        probe_rng = random.Random(23)
        probes = [
            (
                Event(
                    scenario.schema,
                    {
                        name: probe_rng.uniform(
                            scenario.schema.attribute(name).low,
                            scenario.schema.attribute(name).high,
                        )
                        for name in scenario.schema.names
                    },
                    event_id=f"probe-{i}",
                ),
                probe_rng.randrange(NUM_BROKERS),
            )
            for i in range(10)
        ]

        results = {}
        # The flat oracle: linear-scan matching, exact (linear) covering.
        for label, curve, covering, matching in [
            ("oracle", "zorder", "exact", "linear"),
            *[(kind, kind, "approximate", "sfc") for kind in CURVE_KINDS],
        ]:
            transport = (
                SimTransport(FixedLatency(0.05), seed=5)
                if transport_kind == "sim"
                else None
            )
            network = BrokerNetwork.from_topology(
                scenario.schema,
                TOPOLOGIES[topology](NUM_BROKERS),
                covering=covering,
                config=IndexConfig(epsilon=0.2, cube_budget=500, curve=curve),
                matching=matching,
                transport=transport,
            )
            run_scripted_lockstep(network, script)
            delivered = deliveries_by_event(network)
            for event, origin in probes:
                missed, extra = network.publish_and_audit(origin, event)
                assert missed == set() and extra == set(), (label, event.event_id)
                delivered[event.event_id] = frozenset(
                    network.expected_recipients(event, origin=origin)
                )
            assert_suppression_sound(network)
            results[label] = delivered

        for kind in CURVE_KINDS:
            assert results[kind] == results["oracle"], (
                f"{kind} delivery sets diverged from the flat oracle on "
                f"{topology}/{transport_kind}"
            )

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_exact_covering_state_identical_across_curves(self, topology):
        """With exact covering the curve only drives event matching, which is
        exact — so the learnt routing state must be byte-identical."""
        scenario = small_scenario()
        script = subscription_churn_script(scenario, BROKER_IDS, seed=3)
        states = {}
        for curve in CURVE_KINDS:
            network = make_network(
                scenario.schema, topology, "sync", curve, covering="exact"
            )
            run_scripted_lockstep(network, script)
            states[curve] = network.routing_state()
        assert states["hilbert"] == states["zorder"]
        assert states["gray"] == states["zorder"]


# ---------------------------------------------------------------- hypothesis
def _grid_schema(order: int = 6) -> AttributeSchema:
    side = float((1 << order) - 1)
    return AttributeSchema(
        [Attribute("x", 0.0, side), Attribute("y", 0.0, side)], order=order
    )


_SCHEMA6 = _grid_schema(6)
_MAX_CELL = _SCHEMA6.max_cell


def _range_strategy():
    return st.tuples(
        st.integers(0, _MAX_CELL), st.integers(0, _MAX_CELL)
    ).map(lambda pair: (min(pair), max(pair)))


def _rect_strategy():
    return st.tuples(_range_strategy(), _range_strategy())


@st.composite
def _workloads(draw):
    rects = draw(st.lists(_rect_strategy(), min_size=1, max_size=8))
    withdraw_mask = draw(
        st.lists(st.booleans(), min_size=len(rects), max_size=len(rects))
    )
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, _MAX_CELL), st.integers(0, _MAX_CELL)),
            min_size=1,
            max_size=6,
        )
    )
    placements = draw(
        st.lists(
            st.integers(0, 3), min_size=len(rects) + len(cells),
            max_size=len(rects) + len(cells),
        )
    )
    return rects, withdraw_mask, cells, placements


class TestHypothesisDifferential:
    @given(workload=_workloads())
    @settings(max_examples=25, deadline=None)
    def test_random_lifecycles_agree_with_flat_oracle(self, workload):
        """subscribe all → publish → withdraw some → publish, per curve, vs
        the linear-scan oracle (the network's own ground-truth audit)."""
        rects, withdraw_mask, cells, placements = workload
        subscriptions = [
            Subscription(
                _SCHEMA6,
                {"x": (float(xlo), float(xhi)), "y": (float(ylo), float(yhi))},
                sub_id=f"s{i}",
            )
            for i, ((xlo, xhi), (ylo, yhi)) in enumerate(rects)
        ]
        events = [
            Event(
                _SCHEMA6,
                {"x": float(x), "y": float(y)},
                event_id=f"e{i}",
            )
            for i, (x, y) in enumerate(cells)
        ]
        deliveries = {}
        for curve in CURVE_KINDS:
            network = BrokerNetwork.from_topology(
                _SCHEMA6,
                tree_topology(4),
                covering="approximate",
                config=IndexConfig(epsilon=0.2, cube_budget=300, curve=curve),
                matching="sfc",
            )
            for i, subscription in enumerate(subscriptions):
                network.subscribe(placements[i], f"c{i}", subscription)
            log = []
            for j, event in enumerate(events):
                origin = placements[len(subscriptions) + j]
                missed, extra = network.publish_and_audit(origin, event)
                assert missed == set() and extra == set(), (curve, event.event_id)
                log.append(frozenset(network.expected_recipients(event, origin=origin)))
            for i, withdrawn in enumerate(withdraw_mask):
                if withdrawn:
                    network.unsubscribe(f"c{i}", f"s{i}")
            for j, event in enumerate(events):
                origin = placements[len(subscriptions) + j]
                missed, extra = network.publish_and_audit(origin, event)
                assert missed == set() and extra == set(), (curve, "post", event.event_id)
                log.append(frozenset(network.expected_recipients(event, origin=origin)))
            assert_suppression_sound(network)
            deliveries[curve] = log
        assert deliveries["hilbert"] == deliveries["zorder"]
        assert deliveries["gray"] == deliveries["zorder"]

    @given(
        rects=st.lists(_rect_strategy(), min_size=1, max_size=10),
        probes=st.lists(
            st.tuples(st.integers(0, _MAX_CELL), st.integers(0, _MAX_CELL)),
            min_size=1,
            max_size=20,
        ),
        run_budget=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_match_index_rectangle_fallback_sound_per_curve(
        self, rects, probes, run_budget
    ):
        """Per curve, the (coarsened) match index stabs exactly the points
        each rectangle contains — no false negatives from decomposition, no
        false positives surviving the rectangle check."""
        for curve in CURVE_KINDS:
            index = MatchIndex(_SCHEMA6, config=IndexConfig(run_budget=run_budget, curve=curve))
            for i, rect in enumerate(rects):
                index.add(f"s{i}", rect)
            for cell in probes:
                expected = {
                    f"s{i}"
                    for i, ((xlo, xhi), (ylo, yhi)) in enumerate(rects)
                    if xlo <= cell[0] <= xhi and ylo <= cell[1] <= yhi
                }
                assert set(index.matching_ids(cell)) == expected, (curve, cell)
                assert index.any_match(cell) == bool(expected), (curve, cell)


# ------------------------------------------------------------- configuration
class TestCurveConfigurationErrors:
    def test_unknown_curve_kind_rejected_everywhere(self):
        schema = _grid_schema(5)
        with pytest.raises(ValueError, match="unknown curve kind"):
            MatchIndex(schema, config=IndexConfig(curve="peano"))
        with pytest.raises(ValueError, match="unknown curve kind"):
            make_covering_strategy("approximate", schema, config=IndexConfig(curve="peano"))
        with pytest.raises(ValueError, match="unknown curve kind"):
            BrokerNetwork.from_topology(
                schema, tree_topology(2), covering="approximate", config=IndexConfig(curve="peano")
            )

    def test_plan_rejects_curve_over_wrong_universe(self):
        """A curve whose order does not match the universe's bit depth would
        silently mis-key every probe; the plan builder must refuse it."""
        universe = Universe(dims=2, order=6)
        wrong_order = make_curve("hilbert", Universe(dims=2, order=5))
        wrong_dims = make_curve("zorder", Universe(dims=3, order=6))
        for curve in (wrong_order, wrong_dims):
            with pytest.raises(ValueError, match="does not match"):
                build_dominance_plan(
                    universe, (1, 2), epsilon=0.1, cube_budget=100, curve=curve
                )

    def test_execute_plan_rejects_cross_curve_plan(self):
        universe = Universe(dims=2, order=5)
        index = ApproximateDominanceIndex(
            universe=universe, epsilon=0.1, curve=make_curve("zorder", universe)
        )
        plan = build_dominance_plan(
            universe,
            (3, 4),
            epsilon=0.1,
            cube_budget=100,
            curve=make_curve("hilbert", universe),
        )
        with pytest.raises(ValueError, match="hilbert"):
            index.execute_plan(plan)

    def test_cross_curve_profile_falls_back_to_correct_answer(self):
        """A profile built under another curve is incompatible; the detector
        must fall back to the classic search and still answer correctly."""
        detector = ApproximateCoveringDetector(
            attributes=1,
            attribute_order=6,
            config=OFFLINE_CONFIG.replace(epsilon=0.1, curve="zorder"),
        )
        detector.add_subscription("wide", [(0, 60)])
        profiler = CoveringProfiler(
            1, 6, config=OFFLINE_CONFIG.replace(epsilon=0.1, curve="hilbert")
        )
        profile = profiler.profile([(10, 20)])
        assert not detector.compatible_profile(profile)
        result = detector.find_covering_profile(profile)
        assert result.covering_id == "wide"

    def test_matched_curve_profile_is_compatible(self):
        detector = ApproximateCoveringDetector(
            attributes=1,
            attribute_order=6,
            config=OFFLINE_CONFIG.replace(epsilon=0.1, curve="hilbert"),
        )
        profiler = CoveringProfiler(1, 6, config=detector.config)
        assert detector.compatible_profile(profiler.profile([(10, 20)]))
