"""The paper's experiments at tiny sizes: ``experiments/paper.py``,
``covering_cost.py``, ``pubsub_propagation.py``, ``event_matching.py`` and
``micro_ops.py``.

Each script's functions take their sizes; here they run small and must show
the qualitative properties the paper claims (the approximate cost
stabilises while the exhaustive cost grows, covering shrinks routing tables
and loses nothing), and each script's ``check`` (the claims its ``main``
asserts) must hold on its tables and fail on a row that breaks one.
"""

from __future__ import annotations

import pytest

from experiment_loader import load_experiment
from repro.pubsub.routing_table import COVERING_KINDS, InterfaceTable


@pytest.fixture(scope="module")
def paper():
    return load_experiment("paper")


@pytest.fixture(scope="module")
def covering_cost():
    return load_experiment("covering_cost")


@pytest.fixture(scope="module")
def pubsub_propagation():
    return load_experiment("pubsub_propagation")


@pytest.fixture(scope="module")
def event_matching():
    return load_experiment("event_matching")


@pytest.fixture(scope="module")
def paper_tables(paper):
    """Every table ``paper.main`` writes, at tiny sizes (the product-budget
    table keeps one store past the stock scenario's 2,000-cube plan, so both
    sides of the profile's compare / probe crossover are in it)."""
    return {
        "fig1_runs_hilbert_vs_z": paper.fig1(4),
        "fig2_query_examples": paper.fig2(),
        "thm31_upper_bound": paper.thm31(14, (8, 10, 12, 14)),
        "lem32_volume_coverage": paper.lem32(3, 12, 20),
        "thm41_lower_bound": paper.thm41(12, (3, 5, 7)),
        "dimensionality_aspect": paper.dimensionality((1, 2), (0,), 150, 10),
        "recall_vs_epsilon": paper.recall(200, 30, (0.1,), 30_000),
        "recall_at_product_budget": paper.product_budget_recall((20, 2_100), 20),
        "curve_ablation": paper.curve_ablation(60),
        "ablation_run_merging": paper.run_merging(300, 10),
    }


class TestFigureExperiments:
    def test_fig1_rows(self, paper_tables):
        rows = {row["instance"]: row for row in paper_tables["fig1_runs_hilbert_vs_z"].rows}
        assert rows["figure-1"]["z_runs"] == 3
        assert rows["figure-1"]["hilbert_runs"] == 2

    def test_fig2_reproduces_paper_numbers(self, paper_tables):
        rows = {row["region"]: row for row in paper_tables["fig2_query_examples"].rows}
        assert rows["256x256"]["runs"] == 1
        assert rows["257x257"]["runs"] == 385
        assert rows["257x257"]["largest_run_fraction"] > 0.99


class TestBoundExperiments:
    def test_thm31_cost_stabilises_while_exhaustive_grows(self, paper_tables):
        table = paper_tables["thm31_upper_bound"]
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

    def test_lem32_guarantee_respected(self, paper_tables):
        for row in paper_tables["lem32_volume_coverage"].rows:
            assert row["worst_measured_fraction"] >= row["guaranteed_fraction"] - 1e-9

    def test_thm41_measured_runs_meet_lower_bound(self, paper_tables):
        table = paper_tables["thm41_lower_bound"]
        for row in table.rows:
            assert row["exhaustive_runs"] >= row["theorem41_lower_bound"]
        runs = table.column("exhaustive_runs")
        assert runs[-1] > runs[0]


class TestPaperScript:
    def test_check_holds_on_the_tiny_tables(self, paper, paper_tables):
        paper.check(paper_tables)

    def test_check_fails_on_an_approximate_cost_above_the_bound(self, paper, paper_tables):
        tables = dict(paper_tables)
        broken = paper.thm31(14, (8, 10, 12, 14))
        broken.rows[0]["approx_cubes"] = broken.rows[0]["theorem31_bound"] + 1
        tables["thm31_upper_bound"] = broken
        with pytest.raises(AssertionError):
            paper.check(tables)

    def test_the_run_merging_ablation_answers_alike(self, paper_tables):
        merged, unmerged = paper_tables["ablation_run_merging"].rows
        assert (merged["variant"], unmerged["variant"]) == ("merge-adjacent-runs", "probe-each-cube")
        assert merged["covers_found"] == unmerged["covers_found"]
        assert merged["runs_probed"] < unmerged["runs_probed"]


class TestSystemExperiments:
    def test_approx_vs_exhaustive_cost_ordering(self, covering_cost):
        table = covering_cost.approx_vs_exhaustive(10, 400, 60, (0.0, 0.1))
        by_mode = {row["mode"]: row for row in table.rows if row["mode"] != "linear-scan"}
        assert by_mode["approximate"]["mean_runs_probed"] < by_mode["exhaustive"]["mean_runs_probed"]
        assert by_mode["exhaustive"]["recall"] == 1
        assert 0 < by_mode["approximate"]["recall"] <= 1

    def test_recall_experiment_shape(self, paper_tables):
        table = paper_tables["recall_vs_epsilon"]
        assert len(table.rows) >= 4
        for row in table.rows:
            if "recall" in row:
                assert 0 <= row["recall"] <= 1
        exact_rows = [r for r in table.rows if r.get("strategy") == "linear-scan(exact)"]
        assert all(r["recall"] == 1.0 for r in exact_rows)

    def test_pubsub_covering_reduces_tables_and_loses_nothing(self, pubsub_propagation):
        table = pubsub_propagation.propagation(5, 60, 15)
        rows = {row["strategy"]: row for row in table.rows}
        assert set(rows) == {"none", "approximate"}
        none_row, covering_row = rows["none"], rows["approximate"]
        assert covering_row["routing_table_entries"] < none_row["routing_table_entries"]
        assert covering_row["suppressed"] > 0 and none_row["covering_work_units"] == 0
        for row in rows.values():
            assert row["events_missed"] == 0
        pubsub_propagation.check(table)
        rows["approximate"]["events_missed"] = 1
        with pytest.raises(AssertionError):
            pubsub_propagation.check(table)

    def test_dimensionality_experiment_shape(self, paper_tables):
        table = paper_tables["dimensionality_aspect"]
        assert len(table.rows) == 2
        assert table.rows[1]["mean_runs_probed"] >= table.rows[0]["mean_runs_probed"]

    def test_throughput_experiment_shape(self, covering_cost):
        table = covering_cost.throughput((200, 400), 20)
        assert len(table.rows) == 2
        for row in table.rows:
            assert row["approx_qps"] > 0
            assert row["linear_qps"] > 0
            assert row["approx_hits"] <= row["exact_hits"]
            assert row["rangetree_storage_cells"] > row["stored"]

    def test_covering_cost_check_fails_on_an_unsound_row(self, covering_cost):
        cost = covering_cost.approx_vs_exhaustive(10, 400, 60, (0.0, 0.05))
        scale = covering_cost.throughput((200, 400), 20)
        # A tiny run's throughput is noise: pin it so only the other claims decide.
        for row in scale.rows:
            row["approx_qps"] = 1.0
        covering_cost.check(cost, scale)
        scale.rows[0]["approx_hits"] = scale.rows[0]["exact_hits"] + 1
        with pytest.raises(AssertionError):
            covering_cost.check(cost, scale)

    def test_event_matching_check_and_its_agreement_pass(self, event_matching, monkeypatch):
        size = InterfaceTable.SCAN_LIMIT + 1
        table = event_matching.event_matching((size,), 20)
        event_matching.check(table, timed=False)
        table.rows[0]["false_positives"] = table.rows[0]["candidates_checked"] + 1
        with pytest.raises(AssertionError):
            event_matching.check(table, timed=False)
        # An index that disagrees with the scan stops the experiment.
        monkeypatch.setattr(InterfaceTable, "any_match", lambda self, event: False)
        with pytest.raises(AssertionError, match="disagrees with linear scan"):
            event_matching.event_matching((size,), 20)

    @pytest.mark.parametrize("script", ["pubsub_propagation", "event_matching"])
    def test_network_tables_carry_no_curve_column(self, script, request):
        """Both scripts run ``IndexConfig()``, so a constant ``curve`` column
        would say nothing: the curve is compared in E-CURVE and E-MATCH-SCALE."""
        module = request.getfixturevalue(script)
        if script == "pubsub_propagation":
            table = module.propagation(3, 20, 5)
            assert [row["strategy"] for row in table.rows] == list(COVERING_KINDS)
        else:
            # The smallest table that builds its index (the experiment raises on one that scans).
            size = InterfaceTable.SCAN_LIMIT + 1
            table = module.event_matching((size,), 20)
            assert [row["subscriptions"] for row in table.rows] == [size]
        assert table.rows and all("curve" not in row for row in table.rows)


def test_micro_ops_times_every_primitive_once():
    table = load_experiment("micro_ops").micro_ops(1, 1)
    assert [row["primitive"] for row in table.rows] == [
        "zorder_key_encoding",
        "hilbert_key_encoding",
        "sfc_array_insertion",
        "sfc_array_range_probe",
        "greedy_decomposition_2d",
        "level_census_4d",
        "covering_queries",
    ]
    assert all(row["us_per_call"] > 0 for row in table.rows)
