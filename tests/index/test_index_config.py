"""IndexConfig: the single source of truth for every index knob."""

from __future__ import annotations

import dataclasses

import pytest

from repro.index.config import (
    DEFAULT_CUBE_BUDGET,
    DEFAULT_MATCH_BACKEND,
    DEFAULT_PRECISION_BITS,
    DEFAULT_RUN_BUDGET,
    DEFAULT_SHARDS,
    INDEX_BACKEND_NAMES,
    PRECISION_BIT_BUDGET,
    IndexConfig,
)
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
        assert config.backend == DEFAULT_MATCH_BACKEND
        assert config.run_budget == DEFAULT_RUN_BUDGET
        assert config.cube_budget == DEFAULT_CUBE_BUDGET
        assert config.shards == DEFAULT_SHARDS

    def test_fields_are_pinned(self):
        """A new knob is a deliberate edit here, not a silent addition."""
        assert [f.name for f in dataclasses.fields(IndexConfig)] == [
            "curve",
            "precision_bits",
            "run_budget",
            "cube_budget",
            "epsilon",
            "backend",
            "shards",
        ]

    def test_covering_stack_defaults_to_the_routing_config(self):
        """No silent second budget: a detector or profiler built without a
        config gets the one every other constructor of the stack gets."""
        from repro.core.covering import ApproximateCoveringDetector, CoveringProfiler

        assert (
            ApproximateCoveringDetector(2, 6).config
            == CoveringProfiler(2, 6).config
            == IndexConfig()
        )

    def test_unknown_curve_uses_canonical_message(self):
        with pytest.raises(ValueError, match="unknown curve kind"):
            IndexConfig(curve="peano")

    @pytest.mark.parametrize("backend", ["btree", "avl"])
    def test_unknown_backend(self, backend):
        with pytest.raises(ValueError, match="backend"):
            IndexConfig(backend=backend)

    def test_flat_and_sharded_are_the_only_backends(self):
        assert INDEX_BACKEND_NAMES == ("flat", "sharded")
        assert IndexConfig(backend="sharded").backend == "sharded"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"run_budget": 0},
            {"precision_bits": 0},
            {"cube_budget": 0},
            {"epsilon": -0.1},
            {"epsilon": 1.0},
            {"shards": 0},
        ],
    )
    def test_out_of_range_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            IndexConfig(**kwargs)

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
    """The eleven constructors and factories that take index knobs, minimally applied."""
    from repro.core.covering import ApproximateCoveringDetector, CoveringProfiler
    from repro.pubsub.broker import Broker
    from repro.pubsub.network import BrokerNetwork
    from repro.pubsub.routing_table import (
        ApproximateCoveringStrategy,
        InterfaceTable,
        RoutingTable,
        make_covering_strategy,
    )
    from repro.pubsub.sharded_index import ShardedMatchIndex

    schema = _schema()
    return {
        "MatchIndex": lambda **kw: MatchIndex(schema, **kw),
        "ShardedMatchIndex": lambda **kw: ShardedMatchIndex(schema, **kw),
        "ApproximateCoveringStrategy": lambda **kw: ApproximateCoveringStrategy(2, 6, **kw),
        "make_covering_strategy": lambda **kw: make_covering_strategy(
            "approximate", schema, **kw
        ),
        "InterfaceTable": lambda **kw: InterfaceTable("i", schema, **kw),
        "RoutingTable": lambda **kw: RoutingTable(schema, **kw),
        "Broker": lambda **kw: Broker(broker_id=0, schema=schema, **kw),
        "BrokerNetwork": lambda **kw: BrokerNetwork(schema=schema, **kw),
        "BrokerNetwork.from_topology": lambda **kw: BrokerNetwork.from_topology(
            schema, [(0, 1)], **kw
        ),
        "CoveringProfiler": lambda **kw: CoveringProfiler(2, 6, **kw),
        "ApproximateCoveringDetector": lambda **kw: ApproximateCoveringDetector(2, 6, **kw),
    }


class TestConfigIsTheOnlyChannel:
    @pytest.mark.parametrize("name", sorted(_constructors()))
    @pytest.mark.parametrize(
        "knob", [{"curve": "hilbert"}, {"epsilon": 0.2}, {"run_budget": 8}, {"backend": "sharded"}]
    )
    def test_knob_keywords_are_rejected(self, name, knob):
        """No constructor takes a knob beside ``config=``: the keyword is a TypeError."""
        build = _constructors()[name]
        build(config=IndexConfig(**knob))
        with pytest.raises(TypeError):
            build(**knob)


def _index_layer_constructors():
    """Every constructor below the broker that builds, wraps or plans probes
    of an ordered store."""
    from repro.core.approx_dominance import ApproximateDominanceIndex
    from repro.core.covering import ApproximateCoveringDetector, CoveringProfiler
    from repro.geometry.universe import Universe
    from repro.index.sfc_array import SFCArray
    from repro.pubsub.routing_table import (
        ApproximateCoveringStrategy,
        InterfaceTable,
        RoutingTable,
    )
    from repro.pubsub.sharded_index import ShardedMatchIndex
    from repro.sfc.zorder import ZOrderCurve

    schema = _schema()
    universe = Universe(2, 6)
    return {
        "SFCArray": lambda **kw: SFCArray(ZOrderCurve(universe), **kw),
        "ApproximateDominanceIndex": lambda **kw: ApproximateDominanceIndex(universe, **kw),
        "ApproximateCoveringDetector": lambda **kw: ApproximateCoveringDetector(2, 6, **kw),
        "CoveringProfiler": lambda **kw: CoveringProfiler(2, 6, **kw),
        "ApproximateCoveringStrategy": lambda **kw: ApproximateCoveringStrategy(2, 6, **kw),
        "MatchIndex": lambda **kw: MatchIndex(schema, **kw),
        "ShardedMatchIndex": lambda **kw: ShardedMatchIndex(schema, **kw),
        "InterfaceTable": lambda **kw: InterfaceTable("i", schema, **kw),
        "RoutingTable": lambda **kw: RoutingTable(schema, **kw),
    }


@pytest.mark.parametrize("name", sorted(_index_layer_constructors()))
@pytest.mark.parametrize("knob", ["seed", "backend"])
def test_index_layer_takes_no_seed_and_no_backend_keyword(name, knob):
    """One ordered store, nothing randomised: neither keyword exists below the
    broker (``backend`` reaches the match layer only through ``config=``)."""
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
            IndexConfig(run_budget=8),
            IndexConfig(cube_budget=99),
            IndexConfig(epsilon=0.2),
            IndexConfig(backend="sharded"),
            IndexConfig(shards=2),
        ]
        assert len({base, *variants}) == len(variants) + 1
        assert IndexConfig(run_budget=8) in {v: None for v in variants}

    def test_covering_key_ignores_storage_knobs(self):
        a = IndexConfig(backend="flat", run_budget=8, shards=2)
        b = IndexConfig(backend="sharded", run_budget=64, shards=8)
        assert a.covering_key() == b.covering_key()
        assert (
            a.covering_key()
            != IndexConfig(epsilon=0.3).covering_key()
        )

    def test_replace(self):
        config = IndexConfig()
        replaced = config.replace(curve="hilbert")
        assert replaced.curve == "hilbert"
        assert config.curve == "zorder"
        with pytest.raises(ValueError, match="unknown curve kind"):
            config.replace(curve="peano")

    @pytest.mark.parametrize(
        "knob",
        [
            {"curve": "hilbert"},
            {"precision_bits": 3},
            {"run_budget": 8},
            {"cube_budget": 99},
            {"epsilon": 0.2},
            {"backend": "sharded"},
            {"shards": 2},
        ],
        ids=lambda knob: next(iter(knob)),
    )
    def test_replace_changes_only_the_named_knob(self, knob):
        config = IndexConfig(
            curve="gray", precision_bits=5, run_budget=4, cube_budget=123,
            epsilon=0.3, backend="flat", shards=3,
        )
        replaced = config.replace(**knob)
        assert replaced != config
        for field in dataclasses.fields(IndexConfig):
            expected = knob.get(field.name, getattr(config, field.name))
            assert getattr(replaced, field.name) == expected
