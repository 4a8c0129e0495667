"""Batch keying: ``keys(pts)`` must equal ``[key(p) for p in pts]`` everywhere.

The Z curve's vectorized kernel in :mod:`repro.sfc.vectorized` is pure speed —
every curve's batch entry point must agree bit-for-bit with its scalar bijection,
fall back to pure Python when a kernel declines a batch, and reject invalid
points with the same errors as the scalar path.
"""

from __future__ import annotations

import random

import pytest

from repro.geometry.universe import Universe
from repro.sfc import vectorized
from repro.sfc.gray import GrayCodeCurve
from repro.sfc.hilbert import HilbertCurve
from repro.sfc.zorder import ZOrderCurve

#: Every curve, as its ``kind`` in test ids.
CURVES = (ZOrderCurve, HilbertCurve, GrayCodeCurve)
CURVE_IDS = [curve.kind for curve in CURVES]


def _sample_points(universe: Universe, count: int, seed: int):
    rng = random.Random(seed)
    side = universe.side
    pts = [
        tuple(rng.randrange(side) for _ in range(universe.dims))
        for _ in range(count)
    ]
    # Always include the corners, where masking/shift bugs hide.
    pts.append((0,) * universe.dims)
    pts.append((side - 1,) * universe.dims)
    return pts


def _decline_every_kernel(monkeypatch):
    """Send every batch down the pure-Python keying, as a kernel that cannot
    vectorise a batch does (only the Z curve has a kernel)."""
    monkeypatch.setattr(vectorized, "zorder_keys", lambda *args: None)


@pytest.mark.parametrize("curve_cls", CURVES, ids=CURVE_IDS)
@pytest.mark.parametrize(
    "dims,order",
    [(1, 1), (1, 8), (2, 1), (2, 4), (2, 10), (3, 3), (3, 7), (4, 5)],
)
def test_batch_keys_match_scalar(curve_cls, dims, order):
    universe = Universe(dims=dims, order=order)
    curve = curve_cls(universe)
    pts = _sample_points(universe, 200, seed=dims * 100 + order)
    assert curve.keys(pts) == [curve.key(p) for p in pts]


@pytest.mark.parametrize("curve_cls", CURVES, ids=CURVE_IDS)
def test_batch_keys_beyond_uint64_fall_back(curve_cls):
    # dims*order > 63: the vectorized kernels must decline and the pure-Python
    # path must still agree with the scalar bijection.
    universe = Universe(dims=2, order=40)
    curve = curve_cls(universe)
    pts = _sample_points(universe, 50, seed=9)
    assert curve.keys(pts) == [curve.key(p) for p in pts]


@pytest.mark.parametrize("curve_cls", CURVES, ids=CURVE_IDS)
def test_batch_keys_without_numpy(curve_cls, monkeypatch):
    universe = Universe(dims=2, order=6)
    curve = curve_cls(universe)
    pts = _sample_points(universe, 100, seed=3)
    expected = [curve.key(p) for p in pts]
    _decline_every_kernel(monkeypatch)
    assert curve.keys(pts) == expected


@pytest.mark.parametrize("curve_cls", CURVES, ids=CURVE_IDS)
@pytest.mark.parametrize("numpy_available", [True, False])
@pytest.mark.parametrize(
    "dims,order", [(1, 17), (2, 8), (2, 9), (3, 10), (3, 21), (5, 12), (2, 40)]
)
def test_scalar_key_equals_batch_keys(curve_cls, numpy_available, dims, order, monkeypatch):
    # The scalar key is the table-driven interleave at every byte boundary and
    # past 64 bits; the batch path is numpy's kernels or the Python fallback.
    universe = Universe(dims=dims, order=order)
    curve = curve_cls(universe)
    pts = _sample_points(universe, 60, seed=dims * 1000 + order)
    if not numpy_available:
        _decline_every_kernel(monkeypatch)
    assert [curve.key(p) for p in pts] == curve.keys(pts)


@pytest.mark.parametrize("curve_cls", CURVES, ids=CURVE_IDS)
def test_batch_keys_validate_like_scalar(curve_cls):
    universe = Universe(dims=2, order=4)
    curve = curve_cls(universe)
    for bad in [(16, 0)], [(-1, 3)], [(0, 0, 0)], [(0,)]:
        with pytest.raises(ValueError):
            curve.keys(bad)
        with pytest.raises(ValueError):
            curve.key(bad[0])


@pytest.mark.parametrize("curve_cls", CURVES, ids=CURVE_IDS)
def test_batch_keys_empty(curve_cls):
    universe = Universe(dims=2, order=4)
    curve = curve_cls(universe)
    assert curve.keys([]) == []
    assert curve.cube_key_ranges([]) == []


@pytest.mark.parametrize("curve_cls", CURVES, ids=CURVE_IDS)
def test_cube_key_ranges_match_scalar(curve_cls):
    from repro.geometry.rect import StandardCube

    universe = Universe(dims=2, order=5)
    curve = curve_cls(universe)
    rng = random.Random(11)
    cubes = []
    for _ in range(80):
        level = rng.randrange(universe.order + 1)
        side = universe.cube_side_at_level(level)
        low = tuple(rng.randrange(universe.side // side) * side for _ in range(2))
        cubes.append(StandardCube(universe, low, side))
    assert curve.cube_key_ranges(cubes) == [curve.cube_key_range(c) for c in cubes]


@pytest.mark.parametrize("curve_cls", CURVES, ids=CURVE_IDS)
def test_cube_key_ranges_reject_foreign_universe(curve_cls):
    from repro.geometry.rect import StandardCube

    universe = Universe(dims=2, order=4)
    other = Universe(dims=2, order=5)
    curve = curve_cls(universe)
    cube = StandardCube(other, (0, 0), other.side)
    with pytest.raises(ValueError):
        curve.cube_key_ranges([cube])
