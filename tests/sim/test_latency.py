"""Tests for the per-link latency models."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.sim.latency import (
    DistanceLatency,
    FixedLatency,
    RegionLatency,
    UniformJitterLatency,
    make_latency_model,
    random_positions,
)


class TestModels:
    def test_fixed(self):
        model = FixedLatency(0.7)
        assert model.sample("a", "b", random.Random(0)) == 0.7

    def test_fixed_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-1.0)

    def test_uniform_within_bounds_and_seeded(self):
        model = UniformJitterLatency(base=1.0, jitter=0.5)
        samples = [model.sample("a", "b", random.Random(3)) for _ in range(5)]
        assert all(1.0 <= s <= 1.5 for s in samples)
        # Same RNG state -> same draw.
        assert model.sample("a", "b", random.Random(9)) == model.sample(
            "a", "b", random.Random(9)
        )

    def test_distance_scales_with_separation(self):
        positions = {"a": (0.0, 0.0), "b": (3.0, 4.0), "c": (0.0, 1.0)}
        model = DistanceLatency(positions, base=0.1, scale=1.0)
        rng = random.Random(0)
        assert model.sample("a", "b", rng) == pytest.approx(5.1)
        assert model.sample("a", "c", rng) == pytest.approx(1.1)
        # Unknown broker falls back to the base delay.
        assert model.sample("a", "ghost", rng) == pytest.approx(0.1)

    def test_region_sample_equals_the_defaulted_lookup(self):
        # The model looks both brokers up without a default first; every pair
        # must get what the defaulted lookup it replaced gives, unmapped
        # brokers, None labels and a label equal to a default included.
        regions = {0: "eu", 1: "eu", 2: None, 3: None, 4: ("solo", 5), 6: 1.0, 7: 1}
        model = RegionLatency(regions, lan=0.01, wan=0.4)
        for sender, receiver in itertools.product(range(9), repeat=2):
            same = regions.get(sender, ("solo", sender)) == regions.get(
                receiver, ("solo", receiver)
            )
            expected = model.lan if same else model.wan
            assert model.sample(sender, receiver, random.Random(0)) == expected

    def test_random_positions_deterministic(self):
        assert random_positions(range(5), seed=2) == random_positions(range(5), seed=2)
        assert random_positions(range(5), seed=2) != random_positions(range(5), seed=3)


class TestFactory:
    def test_builds_each_kind(self):
        assert isinstance(make_latency_model("fixed", delay=0.3), FixedLatency)
        assert isinstance(make_latency_model("uniform", base=0.1), UniformJitterLatency)
        assert isinstance(
            make_latency_model("distance", positions={"a": (0, 0)}), DistanceLatency
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_latency_model("warp")
