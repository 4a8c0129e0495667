"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.geometry.universe import Universe
from repro.pubsub.routing_table import InterfaceTable

# Hypothesis effort profiles: "dev" is the default interactive run, "ci" digs
# deeper (ci.sh tier-1 pass), "smoke" keeps property tests near-instant for
# quick sanity loops.  Select with HYPOTHESIS_PROFILE=<name>.
settings.register_profile(
    "ci", max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.register_profile(
    "dev", max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.register_profile(
    "smoke", max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
from repro.sfc.gray import GrayCodeCurve
from repro.sfc.hilbert import HilbertCurve
from repro.sfc.zorder import ZOrderCurve


@pytest.fixture
def small_universe_2d() -> Universe:
    """A 2-dimensional 16×16 universe (small enough for brute-force oracles)."""
    return Universe(dims=2, order=4)


@pytest.fixture(params=["z", "hilbert", "gray"])
def any_curve_2d(request, small_universe_2d):
    """Each of the three SFC implementations over the small 2-D universe."""
    curves = {
        "z": ZOrderCurve,
        "hilbert": HilbertCurve,
        "gray": GrayCodeCurve,
    }
    return curves[request.param](small_universe_2d)


@pytest.fixture(params=["scan", "index"])
def table_path(request, monkeypatch):
    """Each matching path of an interface table, whatever the table's size.

    ``"scan"`` keeps every table scanning; ``"index"`` builds a table's match
    index on its first subscription.  Both must answer exactly alike.
    """
    limit = 0 if request.param == "index" else 1 << 62
    monkeypatch.setattr(InterfaceTable, "SCAN_LIMIT", limit)
    return request.param


@pytest.fixture
def indexed_tables(monkeypatch):
    """Every interface table builds its match index on its first subscription."""
    monkeypatch.setattr(InterfaceTable, "SCAN_LIMIT", 0)
