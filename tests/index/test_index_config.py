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
    MATCH_BACKEND_NAMES,
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

    def test_unknown_curve_uses_canonical_message(self):
        with pytest.raises(ValueError, match="unknown curve kind"):
            IndexConfig(curve="peano")

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            IndexConfig(backend="btree")

    def test_sharded_is_a_valid_index_backend(self):
        assert "sharded" in INDEX_BACKEND_NAMES
        assert "sharded" not in MATCH_BACKEND_NAMES
        assert IndexConfig(backend="sharded").backend == "sharded"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"run_budget": 0},
            {"precision_bits": 0},
            {"precision_bit_budget": 0},
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
    """The ten constructors of the stack that take index knobs, minimally applied."""
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
        "InterfaceTable": lambda **kw: InterfaceTable("i", schema=schema, matching="sfc", **kw),
        "RoutingTable": lambda **kw: RoutingTable(schema=schema, matching="sfc", **kw),
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
        "knob", [{"curve": "hilbert"}, {"epsilon": 0.2}, {"run_budget": 8}, {"backend": "avl"}]
    )
    def test_knob_keywords_are_rejected(self, name, knob):
        """No constructor takes a knob beside ``config=``: the keyword is a TypeError."""
        build = _constructors()[name]
        build(config=IndexConfig(**knob))
        with pytest.raises(TypeError):
            build(**knob)


class TestKeys:
    def test_config_is_its_own_key_distinguishing_every_knob(self):
        base = IndexConfig()
        variants = [
            IndexConfig(curve="hilbert"),
            IndexConfig(precision_bits=3),
            IndexConfig(precision_bit_budget=24),
            IndexConfig(run_budget=8),
            IndexConfig(cube_budget=99),
            IndexConfig(epsilon=0.2),
            IndexConfig(backend="avl"),
            IndexConfig(shards=2),
        ]
        assert len({base, *variants}) == len(variants) + 1
        assert IndexConfig(run_budget=8) in {v: None for v in variants}

    def test_covering_key_ignores_storage_knobs(self):
        a = IndexConfig(backend="flat", run_budget=8, shards=2)
        b = IndexConfig(backend="avl", run_budget=64, shards=8)
        assert a.covering_key() == b.covering_key()
        assert (
            a.covering_key()
            != IndexConfig(epsilon=0.3).covering_key()
        )

    def test_as_dict_roundtrip(self):
        config = IndexConfig(curve="gray", run_budget=16, epsilon=0.1)
        assert IndexConfig(**config.as_dict()) == config

    def test_replace(self):
        config = IndexConfig()
        replaced = config.replace(curve="hilbert")
        assert replaced.curve == "hilbert"
        assert config.curve == "zorder"
        with pytest.raises(ValueError, match="unknown curve kind"):
            config.replace(curve="peano")
