"""The arithmetic of the cost experiments, on synthetic rows.

``experiments/flat_store_costs.py``: ``c_fix`` (a flatten's fixed price) and
``c_run`` (its price per run) are a least-squares line through the table's
(runs, rebuild) rows.  The cost model prices the flattens of small tables,
and a single large-table rebuild would own a line through every row, so the
fit runs through the rows of at most ``FIT_SLOTS`` slots only.

``experiments/scan_crossover.py``: the table size from which an interface
table's index costs less than its scan at r probes per write, which
``InterfaceTable.SCAN_LIMIT`` is read from.
"""

from __future__ import annotations

import statistics

import pytest

from experiment_loader import load_experiment


@pytest.fixture(scope="module")
def costs_script():
    return load_experiment("flat_store_costs")


@pytest.fixture(scope="module")
def crossover_script():
    return load_experiment("scan_crossover")


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


def crossing_row(n, scan_probe, index_probe, scan_write=0.5, index_write=10.0):
    """A scan_crossover row, both probe kinds alike; ``*_write`` is the mean of an add and a remove."""
    row = {"N": n}
    sides = (("scan", scan_probe, scan_write), ("index", index_probe, index_write))
    for side, probe, write in sides:
        for kind in ("matching_ids", "any_match"):
            row[f"{side}_{kind}_us"] = probe
        row[f"{side}_add_us"] = write + 1.0
        row[f"{side}_remove_us"] = write - 1.0
    return row


def test_the_crossover_is_interpolated_between_the_sizes_around_it(crossover_script):
    # The scan costs N/8 µs a probe, the index 1 + N/16; writes cost 0.5 and
    # 10 µs.  At r probes per write the index's excess is 9.5 + r (1 - N/16).
    rows = [crossing_row(n, n / 8, 1 + n / 16) for n in (8, 16, 32, 64, 128, 256)]
    # r = 10: excess 19.5 - 0.625 N, zero at N = 31.2, between 16 and 32.
    assert crossover_script.crossover(rows, "matching_ids", 10) == pytest.approx(31.2)
    # r = 100: 109.5 - 6.25 N, zero at 17.52; r = 1: 10.5 - N/16, zero at 168.
    assert crossover_script.crossover(rows, "any_match", 100) == pytest.approx(17.52)
    assert crossover_script.crossover(rows, "matching_ids", 1) == pytest.approx(168.0)
    # The order of the rows does not matter.
    assert crossover_script.crossover(rows[::-1], "matching_ids", 10) == pytest.approx(31.2)


def test_the_crossover_is_where_the_index_stays_cheaper(crossover_script):
    # Cheaper at 16, dearer again at 32, cheaper from 64 on: the crossover
    # lies between 32 and 64, not between 8 and 16.
    rows = [
        crossing_row(8, 2.0, 3.0, index_write=0.5),
        crossing_row(16, 3.0, 2.0, index_write=0.5),
        crossing_row(32, 4.0, 5.0, index_write=0.5),
        crossing_row(64, 8.0, 5.0, index_write=0.5),
    ]
    # Excess at r = 1: +1, -1, +1, -3; zero a quarter of the way from 32 to 64.
    assert crossover_script.crossover(rows, "any_match", 1) == pytest.approx(40.0)


def test_no_crossing_inside_the_sizes(crossover_script):
    cheaper = [crossing_row(n, 2.0, 1.0, index_write=0.5) for n in (8, 16)]
    dearer = [crossing_row(n, 1.0, 2.0) for n in (8, 16)]
    assert crossover_script.crossover(cheaper, "matching_ids", 10) == 8.0
    assert crossover_script.crossover(dearer, "matching_ids", 10) is None
    # Equal costs count as dearer: the index has to win.
    level = [crossing_row(n, 1.0, 1.0, index_write=0.5) for n in (8, 16)]
    assert crossover_script.crossover(level, "matching_ids", 10) is None


def test_the_printed_crossovers(crossover_script):
    # matching_ids crosses inside the sizes, any_match never does.
    rows = [crossing_row(n, n / 8, 1 + n / 16) for n in (8, 16, 32, 64, 128, 256)]
    for row in rows:
        row["index_any_match_us"] = row["scan_any_match_us"] + 1.0
    lines = crossover_script.format_crossovers(rows).splitlines()
    table = {line.split()[0]: line.split()[1:] for line in lines[2:6]}
    # r = 15, the ratio the limit is read at: 24.5 - 0.9375 N, zero at 26.1.
    assert table == {
        "1": ["168", ">", "256"], "10": ["31", ">", "256"], "15": ["26", ">", "256"],
        "100": ["18", ">", "256"],
    }
    assert crossover_script.LIMIT_RATIO == 15
    assert "SCAN_LIMIT = " in lines[6] and "r = 15" in lines[6]
    cheaper = [crossing_row(n, 2.0, 1.0, index_write=0.5) for n in (8, 16)]
    assert crossover_script.format_crossovers(cheaper).splitlines()[2].split()[1:] == [
        "<=", "8", "<=", "8"
    ]
