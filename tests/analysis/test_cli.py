"""Tests for the experiment command-line interface."""

from __future__ import annotations

import inspect

import pytest

from repro.analysis.cli import EXPERIMENTS, main


class TestCLI:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_single_experiment_prints_table(self, capsys):
        assert main(["run", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "256x256" in out and "257x257" in out

    def test_run_writes_output_file(self, tmp_path, capsys):
        assert main(["run", "fig1", "--output", str(tmp_path)]) == 0
        capsys.readouterr()
        written = (tmp_path / "fig1.txt").read_text()
        assert "hilbert_runs" in written

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nonexistent"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_no_experiment_takes_a_curve(self):
        """``run`` calls every registered driver without arguments; none has a
        ``curve`` parameter left for a flag to feed (``curve-ablation`` sweeps
        all three curves)."""
        for name, fn in EXPERIMENTS.items():
            parameters = inspect.signature(fn).parameters
            assert "curve" not in parameters and "curves" not in parameters, name
            assert all(p.default is not p.empty for p in parameters.values()), name

    def test_registry_matches_driver_module(self):
        # Every registered callable is an experiment driver returning a ResultTable.
        from repro.analysis.reporting import ResultTable

        table = EXPERIMENTS["fig1"]()
        assert isinstance(table, ResultTable)


class TestMetricsCommand:
    def test_metrics_prints_validated_exposition_and_trace(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "E-METRICS" in out
        assert "trace event-0" in out
        assert "critical path:" in out
        assert "# TYPE repro_hop_latency_seconds histogram" in out
        # The command validates before printing, so the printed exposition
        # must re-validate from the captured output.
        from repro.obs.exposition import validate_prometheus_text

        exposition = out[out.index("# HELP") :]
        samples = validate_prometheus_text(exposition)
        assert "repro_network_counter_total" in samples

    def test_metrics_writes_prom_and_snapshot(self, tmp_path, capsys):
        import json

        assert main(["metrics", "--output", str(tmp_path), "--seed", "23"]) == 0
        capsys.readouterr()
        from repro.obs.exposition import validate_prometheus_text

        prom = (tmp_path / "metrics.prom").read_text()
        validate_prometheus_text(prom)
        snap = json.loads((tmp_path / "BENCH_metrics.json").read_text())
        assert snap["repro_routing_table_entries"]["series"][0]["value"] > 0

    def test_serve_is_the_subcommand_that_takes_a_curve(self):
        """``serve`` deploys the product network, so its flags mirror the
        network's ``IndexConfig``: ``--curve`` is one of the curve kinds."""
        from repro.analysis.cli import _build_parser

        parser = _build_parser()
        assert parser.parse_args(["serve"]).curve == "zorder"
        assert parser.parse_args(["serve", "--curve", "hilbert"]).curve == "hilbert"
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(["serve", "--curve", "peano"])
        assert exit_info.value.code == 2

    def test_metrics_rejects_unknown_curve(self, capsys):
        """``run`` and ``metrics`` take no curve at all: any ``--curve`` is
        argparse's usage error (exit code 2), a known kind included."""
        for argv in (
            ["metrics", "--curve", "peano"],
            ["metrics", "--curve", "zorder"],
            ["run", "fig1", "--curve", "zorder"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --curve" in capsys.readouterr().err
