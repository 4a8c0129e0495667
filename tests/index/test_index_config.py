"""IndexConfig: the single source of truth for every match-index knob.

The paper's covering parameters (ε, the cube budget) are the detector's own,
and the run budget is a class constant of the match index.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import experiments
from repro.core.approx_dominance import ApproximateDominanceIndex, build_dominance_plan
from repro.core.covering import (
    DEFAULT_CUBE_BUDGET,
    DEFAULT_EPSILON,
    ApproximateCoveringDetector,
    CoveringProfiler,
)
from repro.geometry.universe import Universe
from repro.index.config import DEFAULT_PRECISION_BITS, PRECISION_BIT_BUDGET, IndexConfig
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.match_index import MatchIndex


def _schema(num_attributes: int = 2, order: int = 6) -> AttributeSchema:
    return AttributeSchema(
        [Attribute(f"a{i}", 0.0, 100.0) for i in range(num_attributes)], order=order
    )


class TestValidation:
    def test_defaults_are_valid(self):
        config = IndexConfig()
        assert config.curve == "zorder"
        assert config.precision_bits is None
        assert MatchIndex.RUN_BUDGET == 64

    def test_fields_are_pinned(self):
        """A new knob is a deliberate edit here, not a silent addition."""
        assert [f.name for f in dataclasses.fields(IndexConfig)] == [
            "curve",
            "precision_bits",
        ]

    def test_covering_stack_defaults_to_one_budget(self):
        """No silent second budget: a detector and a profiler built without
        parameters share ε = 0.05 and 2,000 cubes, so the profiler's profiles
        are the detector's; the detector's index is keyed on the Z curve,
        the default curve of ``IndexConfig``."""
        detector = ApproximateCoveringDetector(2, 6)
        profiler = CoveringProfiler(2, 6)
        assert (DEFAULT_EPSILON, DEFAULT_CUBE_BUDGET) == (0.05, 2_000)
        assert detector.index.array.curve.kind == IndexConfig().curve == "zorder"
        assert (detector.epsilon, detector.cube_budget) == (DEFAULT_EPSILON, DEFAULT_CUBE_BUDGET)
        assert (profiler.epsilon, profiler.cube_budget) == (DEFAULT_EPSILON, DEFAULT_CUBE_BUDGET)
        assert detector.compatible_profile(profiler.profile([(1, 9), (3, 40)]))

    def test_unknown_curve_uses_canonical_message(self):
        with pytest.raises(ValueError, match="unknown curve kind"):
            IndexConfig(curve="peano")

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
            config.curve = "hilbert"


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
        """The old behaviour silently clamped to 0 bits; now it must raise."""
        dims = PRECISION_BIT_BUDGET + 1
        with pytest.raises(ValueError, match="precision bit budget"):
            MatchIndex(_schema(num_attributes=dims, order=4))

    def test_match_index_explicit_precision_escape_hatch(self):
        dims = PRECISION_BIT_BUDGET + 1
        index = MatchIndex(
            _schema(num_attributes=dims, order=4), config=IndexConfig(precision_bits=1)
        )
        assert index.precision_bits == 1


def _constructors():
    """The six constructors that take an ``IndexConfig``, minimally applied."""
    from repro.pubsub.broker import Broker
    from repro.pubsub.network import BrokerNetwork
    from repro.pubsub.routing_table import InterfaceTable, RoutingTable

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


#: The drivers whose networks or tables once took ``curve=``.
NETWORK_DRIVERS = (
    "run_pubsub_experiment",
    "run_metrics_scenario",
    "run_subscription_churn_experiment",
    "run_event_matching_experiment",
    "run_sim_latency_experiment",
    "run_topology_scale_experiment",
)


class TestConfigIsTheOnlyChannel:
    @pytest.mark.parametrize("name", sorted(_constructors()))
    @pytest.mark.parametrize("knob", [{"curve": "hilbert"}, {"precision_bits": 3}])
    def test_knob_keywords_are_rejected(self, name, knob):
        """No constructor takes a knob beside ``config=``: the keyword is a TypeError."""
        build = _constructors()[name]
        build(config=IndexConfig(**knob))
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
        either (the keyword fails before the driver runs)."""
        if name in NETWORK_DRIVERS:
            with pytest.raises(TypeError):
                getattr(experiments, name)(curve="zorder")
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
    from repro.pubsub.routing_table import InterfaceTable, RoutingTable
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
        variants = [
            IndexConfig(curve="hilbert"),
            IndexConfig(precision_bits=3),
        ]
        assert len({base, *variants}) == len(variants) + 1
        assert IndexConfig(precision_bits=3) in {v: None for v in variants}

    def test_replace(self):
        config = IndexConfig()
        replaced = dataclasses.replace(config, curve="hilbert")
        assert replaced.curve == "hilbert"
        assert config.curve == "zorder"
        with pytest.raises(ValueError, match="unknown curve kind"):
            dataclasses.replace(config, curve="peano")

    @pytest.mark.parametrize(
        "knob",
        [
            {"curve": "hilbert"},
            {"precision_bits": 3},
        ],
        ids=lambda knob: next(iter(knob)),
    )
    def test_replace_changes_only_the_named_knob(self, knob):
        config = IndexConfig(curve="gray", precision_bits=5)
        replaced = dataclasses.replace(config, **knob)
        assert replaced != config
        for field in dataclasses.fields(IndexConfig):
            expected = knob.get(field.name, getattr(config, field.name))
            assert getattr(replaced, field.name) == expected
