"""The unit costs ``experiments/flat_store_costs.py`` fits for the flat store's cost model.

``c_fix`` (a flatten's fixed price) and ``c_run`` (its price per run) are a
least-squares line through the table's (runs, rebuild) rows.  The cost model
prices the flattens of small tables, and a single large-table rebuild would
own a line through every row, so the fit runs through the rows of at most
``FIT_SLOTS`` slots only.
"""

from __future__ import annotations

import importlib.util
import pathlib
import statistics

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "experiments" / "flat_store_costs.py"


@pytest.fixture(scope="module")
def costs_script():
    spec = importlib.util.spec_from_file_location("flat_store_costs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def row(slots, runs, rebuild_us, per_pending_slot_ns=200.0):
    return {
        "slots": slots,
        "runs": runs,
        "rebuild_us": rebuild_us,
        "staged": 16,
        "per_pending_slot_ns": per_pending_slot_ns,
    }


def test_a_large_rebuild_does_not_drag_the_fixed_cost_negative(costs_script):
    # Small tables on the line 100 µs + 0.5 µs per run, and one large table
    # whose rebuild runs three times that line.
    small = [row(4, 20, 110.0), row(8, 40, 120.0), row(32, 200, 200.0), row(128, 700, 450.0)]
    large = row(4096, 60_000, 90_000.0)
    rows = small + [large]
    everywhere = statistics.linear_regression(
        [r["runs"] for r in rows], [r["rebuild_us"] for r in rows]
    )
    assert everywhere.intercept < 0  # what a fit through every row prints
    costs = costs_script.unit_costs(rows)
    small_fit = statistics.linear_regression(
        [r["runs"] for r in small], [r["rebuild_us"] for r in small]
    )
    assert costs["c_fix_us"] > 0
    assert costs["c_fix_us"] == pytest.approx(small_fit.intercept)
    assert costs["c_run_us"] == pytest.approx(small_fit.slope)
    assert costs["c_fix/c_test"] == pytest.approx(small_fit.intercept / 0.2)
    shown = costs_script.format_unit_costs(costs)
    assert f"at most {costs_script.FIT_SLOTS} slots" in shown


def test_a_non_positive_fit_prints_no_ratio(costs_script):
    # Rebuilds that fall as the runs rise: the fitted line has no positive slope.
    costs = costs_script.unit_costs([row(4, 20, 300.0), row(8, 40, 200.0)])
    assert costs["c_run_us"] < 0
    assert costs["c_run/c_test"] is None
    line = next(
        line for line in costs_script.format_unit_costs(costs).splitlines() if "c_run/c_test" in line
    )
    assert line.split()[1] == "-"
    assert "c_run is not positive" in line
