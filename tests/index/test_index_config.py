"""IndexConfig: the single source of truth for every match-index knob.

The paper's covering parameters (ε, the cube budget) are the detector's own,
and the run budget is a class constant of the match index.
"""

from __future__ import annotations

import dataclasses

import pytest

from experiment_loader import load_experiment
from repro.analysis import cli
from repro.core.approx_dominance import ApproximateDominanceIndex, build_dominance_plan
from repro.core.covering import (
    DEFAULT_CUBE_BUDGET,
    DEFAULT_EPSILON,
    ApproximateCoveringDetector,
    CoveringProfiler,
)
from repro.geometry.universe import Universe
from repro.index.config import DEFAULT_PRECISION_BITS, PRECISION_BIT_BUDGET, IndexConfig
from repro.pubsub.broker import LOCAL_INTERFACE, Broker
from repro.pubsub.match_index import MatchIndex
from repro.pubsub.network import BrokerNetwork, chain_topology
from repro.pubsub.routing_table import InterfaceTable, RoutingTable
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription


def _schema(num_attributes: int = 2, order: int = 6) -> AttributeSchema:
    return AttributeSchema(
        [Attribute(f"a{i}", 0.0, 100.0) for i in range(num_attributes)], order=order
    )


class TestValidation:
    def test_defaults_are_valid(self):
        config = IndexConfig()
        assert config.precision_bits is None
        assert MatchIndex.RUN_BUDGET == 64

    def test_fields_are_pinned(self):
        """A new knob is a deliberate edit here, not a silent addition."""
        assert [f.name for f in dataclasses.fields(IndexConfig)] == ["precision_bits"]

    def test_covering_stack_defaults_to_one_budget(self):
        """No silent second budget: a detector and a profiler built without
        parameters share ε = 0.05 and 2,000 cubes, so the profiler's profiles
        are the detector's; the detector's index is keyed on the Z curve,
        as every match index is."""
        detector = ApproximateCoveringDetector(2, 6)
        profiler = CoveringProfiler(2, 6)
        assert (DEFAULT_EPSILON, DEFAULT_CUBE_BUDGET) == (0.05, 2_000)
        assert detector.index.array.curve.kind == MatchIndex(_schema()).curve.kind == "zorder"
        assert (detector.epsilon, detector.cube_budget) == (DEFAULT_EPSILON, DEFAULT_CUBE_BUDGET)
        assert (profiler.epsilon, profiler.cube_budget) == (DEFAULT_EPSILON, DEFAULT_CUBE_BUDGET)
        assert detector.compatible_profile(profiler.profile([(1, 9), (3, 40)]))

    def test_curve_is_no_knob(self):
        """Every match index keys on the Z curve: ``curve=`` is a TypeError."""
        with pytest.raises(TypeError):
            IndexConfig(curve="zorder")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"precision_bits": 0},
            {"precision_bits": -1},
        ],
    )
    def test_out_of_range_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            IndexConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cube_budget": 0},
            {"epsilon": -0.1},
            {"epsilon": 1.0},
        ],
    )
    def test_out_of_range_covering_parameters_raise(self, kwargs):
        """The detector's dominance index rejects them when it is built, a
        profiler's plan builder when it profiles."""
        with pytest.raises(ValueError):
            ApproximateCoveringDetector(2, 6, **kwargs)
        profiler = CoveringProfiler(2, 6, **kwargs)
        with pytest.raises(ValueError):
            profiler.profile([(1, 9), (3, 40)])

    def test_frozen(self):
        config = IndexConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.precision_bits = 3


class TestPrecisionBits:
    def test_explicit_wins_over_budget(self):
        assert IndexConfig(precision_bits=9).effective_precision_bits(4) == 9

    def test_derived_from_budget(self):
        config = IndexConfig()
        # budget // dims, capped at the default per-dimension precision
        assert config.effective_precision_bits(2) == min(
            DEFAULT_PRECISION_BITS, PRECISION_BIT_BUDGET // 2
        )
        assert config.effective_precision_bits(4) == PRECISION_BIT_BUDGET // 4

    def test_high_dimensional_budget_exhaustion_raises(self):
        config = IndexConfig()
        with pytest.raises(ValueError, match="precision bit budget"):
            config.effective_precision_bits(PRECISION_BIT_BUDGET + 1)

    def test_match_index_rejects_budget_exhaustion_loudly(self):
        """The old behaviour silently clamped to 0 bits; now it must raise.  A
        broker or network raises when it is built: its tables ask for their
        grid only when one outgrows its scan, mid-propagation, and a
        subscription would be admitted that no table then stores."""
        schema = _schema(num_attributes=PRECISION_BIT_BUDGET + 1, order=4)
        for build in (
            MatchIndex,
            lambda schema: Broker(broker_id=0, schema=schema),
            lambda schema: BrokerNetwork.from_topology(schema, chain_topology(2)),
        ):
            with pytest.raises(ValueError, match="pass an explicit precision_bits"):
                build(schema)

    def test_match_index_explicit_precision_escape_hatch(self):
        schema = _schema(num_attributes=PRECISION_BIT_BUDGET + 1, order=4)
        config = IndexConfig(precision_bits=1)
        assert MatchIndex(schema, config=config).precision_bits == 1
        # A network on the pinned grid stays clean past the table size at
        # which its local table builds an index.
        network = BrokerNetwork.from_topology(schema, chain_topology(2), config=config)
        for i in range(InterfaceTable.SCAN_LIMIT + 10):
            subscription = Subscription(schema, {"a0": (i, i + 30.0)}, sub_id=f"s{i}")
            network.subscribe(0, f"c{i}", subscription)
        assert network.brokers[0].routing_table.table(LOCAL_INTERFACE).match_index is not None
        event = Event(schema, {name: 50.0 for name in schema.names})
        assert network.publish_and_audit(1, event) == (set(), set())


def _constructors():
    """The six constructors that take an ``IndexConfig``, minimally applied."""
    schema = _schema()
    return {
        "MatchIndex": lambda **kw: MatchIndex(schema, **kw),
        "InterfaceTable": lambda **kw: InterfaceTable("i", schema, **kw),
        "RoutingTable": lambda **kw: RoutingTable(schema, **kw),
        "Broker": lambda **kw: Broker(broker_id=0, schema=schema, **kw),
        "BrokerNetwork": lambda **kw: BrokerNetwork(schema=schema, **kw),
        "BrokerNetwork.from_topology": lambda **kw: BrokerNetwork.from_topology(
            schema, [(0, 1)], **kw
        ),
    }


def _paper_search():
    """The paper's covering search, its index and its plan builder, minimally applied."""
    universe = Universe(4, 6)

    def plan(epsilon=0.05, cube_budget=2_000, **kw):
        return build_dominance_plan(
            universe, (1, 2, 3, 4), epsilon=epsilon, cube_budget=cube_budget, **kw
        )

    return {
        "ApproximateCoveringDetector": lambda **kw: ApproximateCoveringDetector(2, 6, **kw),
        "CoveringProfiler": lambda **kw: CoveringProfiler(2, 6, **kw),
        "ApproximateDominanceIndex": lambda **kw: ApproximateDominanceIndex(universe, **kw),
        "build_dominance_plan": plan,
    }


#: The drivers whose networks or tables once took ``curve=``; none does now:
#: ``(script under experiments/ or None for the CLI, function)``.
NETWORK_DRIVERS = {
    "pubsub_propagation.propagation": ("pubsub_propagation", "propagation"),
    "cli.run_metrics_scenario": (None, "run_metrics_scenario"),
    "subscription_churn.churn": ("subscription_churn", "churn"),
    "event_matching.event_matching": ("event_matching", "event_matching"),
}


class TestConfigIsTheOnlyChannel:
    @pytest.mark.parametrize("name", sorted(_constructors()))
    @pytest.mark.parametrize("knob", [{"curve": "zorder"}, {"precision_bits": 3}])
    def test_knob_keywords_are_rejected(self, name, knob):
        """No constructor takes a knob beside ``config=`` (and ``curve`` is no
        knob at all): the keyword is a TypeError."""
        build = _constructors()[name]
        build(config=IndexConfig(precision_bits=3))
        with pytest.raises(TypeError):
            build(**knob)

    @pytest.mark.parametrize("name", sorted(_constructors()) + ["IndexConfig"])
    @pytest.mark.parametrize(
        "knob", [{"epsilon": 0.2}, {"cube_budget": 99}, {"run_budget": 8}]
    )
    def test_no_routing_constructor_takes_a_covering_or_run_budget_knob(self, name, knob):
        """ε and the cube budget are the paper detector's, the run budget
        is ``MatchIndex.RUN_BUDGET``: as keywords of ``IndexConfig`` or of any
        constructor that takes one, they are a TypeError."""
        build = {**_constructors(), "IndexConfig": IndexConfig}[name]
        with pytest.raises(TypeError):
            build(**knob)

    @pytest.mark.parametrize("name", sorted(_paper_search()) + list(NETWORK_DRIVERS))
    def test_the_paper_detector_takes_its_query_parameters_and_no_config(self, name):
        """The paper's search takes ε and the cube budget as keywords and runs
        on the Z curve, so ``curve=`` is a TypeError there; a network driver
        builds its network with ``IndexConfig()`` and takes no ``curve=``
        either (the keyword is rejected before the missing sizes are)."""
        if name in NETWORK_DRIVERS:
            script, function = NETWORK_DRIVERS[name]
            owner = cli if script is None else load_experiment(script)
            with pytest.raises(TypeError, match="unexpected keyword argument 'curve'"):
                getattr(owner, function)(curve="zorder")
            return
        build = _paper_search()[name]
        built = build(epsilon=0.2, cube_budget=99)
        assert (built.epsilon, built.cube_budget) == (0.2, 99)
        for knob in (
            {"config": IndexConfig()},
            {"curve": "hilbert"},
            {"run_budget": 8},
            {"precision_bits": 3},
        ):
            with pytest.raises(TypeError):
                build(**knob)


def _index_layer_constructors():
    """``IndexConfig`` and every constructor below the broker that builds,
    wraps or plans probes of an ordered store."""
    from repro.core.approx_dominance import ApproximateDominanceIndex
    from repro.core.covering import ApproximateCoveringDetector, CoveringProfiler
    from repro.geometry.universe import Universe
    from repro.index.sfc_array import SFCArray
    from repro.sfc.zorder import ZOrderCurve

    schema = _schema()
    universe = Universe(2, 6)
    return {
        "IndexConfig": IndexConfig,
        "SFCArray": lambda **kw: SFCArray(ZOrderCurve(universe), **kw),
        "ApproximateDominanceIndex": lambda **kw: ApproximateDominanceIndex(universe, **kw),
        "ApproximateCoveringDetector": lambda **kw: ApproximateCoveringDetector(2, 6, **kw),
        "CoveringProfiler": lambda **kw: CoveringProfiler(2, 6, **kw),
        "MatchIndex": lambda **kw: MatchIndex(schema, **kw),
        "InterfaceTable": lambda **kw: InterfaceTable("i", schema, **kw),
        "RoutingTable": lambda **kw: RoutingTable(schema, **kw),
    }


@pytest.mark.parametrize("name", sorted(_index_layer_constructors()))
@pytest.mark.parametrize("knob", ["seed", "backend", "shards"])
def test_index_layer_takes_no_seed_and_no_backend_keyword(name, knob):
    """One ordered store, nothing randomised: none of these keywords exists
    below the broker, and ``IndexConfig`` has no store choice or shard
    count to set."""
    build = _index_layer_constructors()[name]
    build()
    with pytest.raises(TypeError):
        build(**{knob: 1})


class TestKeys:
    def test_config_is_its_own_key_distinguishing_every_knob(self):
        base = IndexConfig()
        variants = [IndexConfig(precision_bits=3), IndexConfig(precision_bits=5)]
        assert len({base, *variants}) == len(variants) + 1
        assert IndexConfig(precision_bits=3) in {v: None for v in variants}

    def test_replace(self):
        config = IndexConfig()
        replaced = dataclasses.replace(config, precision_bits=3)
        assert replaced.precision_bits == 3
        assert config.precision_bits is None
        with pytest.raises(ValueError, match="precision_bits must be >= 1"):
            dataclasses.replace(config, precision_bits=0)
