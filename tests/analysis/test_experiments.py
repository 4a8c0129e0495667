"""Smoke and shape tests for the experiment drivers (small problem sizes).

Benchmarks run the drivers at their default sizes; these tests run reduced
sizes so the full suite stays fast, and assert the qualitative properties the
paper claims (e.g. the approximate cost stabilises while the exhaustive cost
grows).
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    run_approx_vs_exhaustive_experiment,
    run_dimensionality_experiment,
    run_event_matching_experiment,
    run_fig1_experiment,
    run_fig2_experiment,
    run_lem32_experiment,
    run_pubsub_experiment,
    run_recall_experiment,
    run_thm31_experiment,
    run_thm41_experiment,
    run_throughput_experiment,
)
from repro.pubsub.routing_table import COVERING_KINDS


class TestFigureExperiments:
    def test_fig1_rows(self):
        table = run_fig1_experiment(order=4)
        rows = {row["instance"]: row for row in table.rows}
        assert rows["figure-1"]["z_runs"] == 3
        assert rows["figure-1"]["hilbert_runs"] == 2

    def test_fig2_reproduces_paper_numbers(self):
        table = run_fig2_experiment()
        rows = {row["region"]: row for row in table.rows}
        assert rows["256x256"]["runs"] == 1
        assert rows["257x257"]["runs"] == 385
        assert rows["257x257"]["largest_run_fraction"] > 0.99


class TestBoundExperiments:
    def test_thm31_cost_stabilises_while_exhaustive_grows(self):
        table = run_thm31_experiment(dims=4, order=14, side_bit_lengths=(8, 10, 12, 14))
        approx = table.column("approx_cubes")
        exhaustive = table.column("exhaustive_cubes")
        bound = table.column("theorem31_bound")[0]
        # Approximate cost is bounded and does not keep growing with the region.
        assert max(approx) <= bound
        assert approx[-1] == approx[-2]
        # Exhaustive cost keeps growing.
        assert exhaustive[-1] > 10 * exhaustive[0]
        # Every row reaches the promised coverage.
        assert all(c >= 0.95 for c in table.column("coverage"))

    def test_lem32_guarantee_respected(self):
        table = run_lem32_experiment(dims=3, order=12, trials=20)
        for row in table.rows:
            assert row["worst_measured_fraction"] >= row["guaranteed_fraction"] - 1e-9

    def test_thm41_measured_runs_meet_lower_bound(self):
        table = run_thm41_experiment(dims=2, order=12, alpha=1, gammas=(3, 5, 7))
        for row in table.rows:
            assert row["exhaustive_runs"] >= row["theorem41_lower_bound"]
        runs = table.column("exhaustive_runs")
        assert runs[-1] > runs[0]


class TestSystemExperiments:
    def test_approx_vs_exhaustive_cost_ordering(self):
        table = run_approx_vs_exhaustive_experiment(
            num_subscriptions=400, num_queries=60, epsilons=(0.0, 0.1), order=10
        )
        by_mode = {row["mode"]: row for row in table.rows if row["mode"] != "linear-scan"}
        assert by_mode["approximate"]["mean_runs_probed"] < by_mode["exhaustive"]["mean_runs_probed"]
        assert by_mode["exhaustive"]["recall"] == 1
        assert 0 < by_mode["approximate"]["recall"] <= 1

    def test_recall_experiment_shape(self):
        table = run_recall_experiment(
            num_subscriptions=200, num_queries=30, epsilons=(0.1,), cube_budget=30_000
        )
        assert len(table.rows) >= 4
        for row in table.rows:
            if "recall" in row:
                assert 0 <= row["recall"] <= 1
        exact_rows = [r for r in table.rows if r.get("strategy") == "linear-scan(exact)"]
        assert all(r["recall"] == 1.0 for r in exact_rows)

    def test_pubsub_covering_reduces_tables_and_loses_nothing(self):
        table = run_pubsub_experiment(
            num_brokers=5,
            num_subscriptions=60,
            num_events=15,
        )
        rows = {row["strategy"]: row for row in table.rows}
        assert set(rows) == {"none", "approximate"}
        none_row, covering_row = rows["none"], rows["approximate"]
        assert covering_row["routing_table_entries"] < none_row["routing_table_entries"]
        assert covering_row["suppressed"] > 0 and none_row["covering_work_units"] == 0
        for row in rows.values():
            assert row["events_missed"] == 0

    def test_dimensionality_experiment_shape(self):
        table = run_dimensionality_experiment(
            attribute_counts=(1, 2), alphas=(0,), num_subscriptions=150, num_queries=10
        )
        assert len(table.rows) == 2
        assert table.rows[1]["mean_runs_probed"] >= table.rows[0]["mean_runs_probed"]

    def test_throughput_experiment_shape(self):
        table = run_throughput_experiment(sizes=(200, 400), num_queries=20)
        assert len(table.rows) == 2
        for row in table.rows:
            assert row["approx_qps"] > 0
            assert row["linear_qps"] > 0
            assert row["approx_hits"] <= row["exact_hits"]
            assert row["rangetree_storage_cells"] > row["stored"]

    @pytest.mark.parametrize("driver", ["pubsub", "event-matching"])
    def test_network_tables_carry_no_curve_column(self, driver):
        """Both drivers run ``IndexConfig()``, so a constant ``curve`` column
        would say nothing: the curve is compared in E-CURVE and E-MATCH-SCALE."""
        if driver == "pubsub":
            table = run_pubsub_experiment(num_brokers=3, num_subscriptions=20, num_events=5)
            assert [row["strategy"] for row in table.rows] == list(COVERING_KINDS)
        else:
            table = run_event_matching_experiment(table_sizes=(40,), num_events=20)
            assert [row["subscriptions"] for row in table.rows] == [40]
        assert table.rows and all("curve" not in row for row in table.rows)
