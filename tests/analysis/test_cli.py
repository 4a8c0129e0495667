"""Tests for the command-line interface: ``serve`` and ``metrics``."""

from __future__ import annotations

import pytest

from repro.analysis.cli import main


class TestCLI:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", ["list", "run"])
    def test_only_serve_and_metrics_are_commands(self, command, capsys):
        """The experiments are scripts under ``experiments/``: ``list`` and
        ``run`` are argparse's usage error (exit code 2)."""
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


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

    def test_metrics_rejects_unknown_curve(self, capsys):
        """No subcommand takes a curve (every network keys on Z): any
        ``--curve`` is argparse's usage error (exit code 2), a known kind
        included, before anything runs or binds a port."""
        for argv in (
            ["metrics", "--curve", "peano"],
            ["metrics", "--curve", "zorder"],
            ["serve", "--curve", "zorder"],
            ["serve", "--curve", "hilbert"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --curve" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["serve", "--seed", "7"], ["serve", "--covering", "none"]],
        ids=["seed", "covering"],
    )
    def test_serve_takes_no_seed_or_covering(self, argv, capsys):
        """A served network never traces, and its seed only derives trace ids,
        so ``--seed`` changed nothing; every served broker checks covering.
        Both are argparse's usage error before anything binds a port."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
