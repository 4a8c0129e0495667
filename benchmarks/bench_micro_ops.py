"""Micro-benchmarks of the core primitives (true pytest-benchmark timings).

These complement the macro experiment benches: each measures one hot
operation with full statistical rounds — Z/Hilbert key encoding, SFC-array
insertion and range probing, greedy decomposition, and a single covering
query — so regressions in the primitives are visible independently of the
experiment drivers.
"""

from __future__ import annotations

import random

import pytest

from repro.core.covering import ApproximateCoveringDetector
from repro.core.decomposition import greedy_decomposition, level_census
from repro.geometry.rect import ExtremalRectangle
from repro.geometry.universe import Universe
from repro.index.sfc_array import SFCArray
from repro.sfc.hilbert import HilbertCurve
from repro.sfc.zorder import ZOrderCurve


@pytest.fixture(scope="module")
def universe_2d():
    return Universe(dims=2, order=16)


@pytest.fixture(scope="module")
def universe_4d():
    return Universe(dims=4, order=10)


def test_zorder_key_encoding(benchmark, universe_4d):
    curve = ZOrderCurve(universe_4d)
    rng = random.Random(1)
    points = [tuple(rng.randint(0, 1023) for _ in range(4)) for _ in range(1000)]

    def encode_all():
        for p in points:
            curve.key(p)

    benchmark(encode_all)


def test_hilbert_key_encoding(benchmark, universe_4d):
    curve = HilbertCurve(universe_4d)
    rng = random.Random(2)
    points = [tuple(rng.randint(0, 1023) for _ in range(4)) for _ in range(1000)]

    def encode_all():
        for p in points:
            curve.key(p)

    benchmark(encode_all)


def test_sfc_array_insertion(benchmark, universe_4d):
    curve = ZOrderCurve(universe_4d)
    rng = random.Random(3)
    points = [tuple(rng.randint(0, 1023) for _ in range(4)) for _ in range(1000)]

    def insert_all():
        array = SFCArray(curve)
        for i, p in enumerate(points):
            array.add(i, p)
        return array

    benchmark(insert_all)


def test_sfc_array_range_probe(benchmark, universe_4d):
    curve = ZOrderCurve(universe_4d)
    array = SFCArray(curve)
    rng = random.Random(4)
    for i in range(5000):
        array.add(i, tuple(rng.randint(0, 1023) for _ in range(4)))
    probes = []
    for _ in range(500):
        lo = rng.randint(0, universe_4d.max_key)
        hi = min(universe_4d.max_key, lo + rng.randint(0, 1 << 24))
        probes.append((lo, hi))

    def probe_all():
        hits = 0
        for key_range in probes:
            if array.first_in_key_range(key_range) is not None:
                hits += 1
        return hits

    benchmark(probe_all)


def test_greedy_decomposition_2d(benchmark, universe_2d):
    region = ExtremalRectangle(universe_2d, (12_345, 6_789))

    benchmark(lambda: greedy_decomposition(region))


def test_level_census_4d(benchmark, universe_4d):
    region = ExtremalRectangle(universe_4d, (1_023, 767, 893, 511))

    benchmark(lambda: level_census(region))


def test_single_covering_query(benchmark):
    detector = ApproximateCoveringDetector(
        attributes=2, attribute_order=10, epsilon=0.1, cube_budget=20_000
    )
    rng = random.Random(5)
    for i in range(2_000):
        lo1, lo2 = rng.randint(0, 900), rng.randint(0, 900)
        detector.add_subscription(
            i, [(lo1, min(1023, lo1 + rng.randint(10, 400))), (lo2, min(1023, lo2 + rng.randint(10, 400)))]
        )
    queries = []
    for _ in range(50):
        lo1, lo2 = rng.randint(0, 950), rng.randint(0, 950)
        queries.append([(lo1, min(1023, lo1 + 50)), (lo2, min(1023, lo2 + 50))])

    def run_queries():
        found = 0
        for q in queries:
            if detector.find_covering(q).covered:
                found += 1
        return found

    benchmark(run_queries)
