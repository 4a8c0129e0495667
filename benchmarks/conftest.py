"""Shared helpers for the benchmark harness.

Each benchmark regenerates one of the paper's figures/claims (see the
README's "Tests and benchmarks" section) by calling the corresponding driver
in ``repro.analysis.experiments`` exactly once under pytest-benchmark timing,
and writes the resulting table to ``benchmarks/results/<experiment>.txt`` so
the numbers quoted in the README can be re-derived from a single
``pytest benchmarks/ --benchmark-only`` run (a ``REPRO_BENCH_SMOKE=1`` pass
writes its tiny-size tables to a temporary directory instead).
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> pathlib.Path:
    """Directory where benchmark-generated tables are stored.

    A smoke pass (``REPRO_BENCH_SMOKE=1``, what ``ci.sh`` runs) produces
    tiny-size tables that must not replace the tracked full-size ones, so it
    writes to a temporary directory instead.
    """
    if os.environ.get("REPRO_BENCH_SMOKE"):
        return tmp_path_factory.mktemp("bench-results")
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_table(results_dir):
    """Return a callable that saves a ResultTable to the results directory and echoes it.

    Besides the aligned-text rendering, the raw rows are written as
    ``BENCH_<name>.json`` (the machine-readable convention downstream tooling
    and the observability snapshots share).
    """
    from repro.obs.exposition import write_bench_json

    def _record(name: str, table) -> None:
        text = table.to_text()
        (results_dir / f"{name}.txt").write_text(text + "\n")
        write_bench_json(results_dir / f"BENCH_{name}.json", table.rows)
        print()
        print(text)

    return _record


@pytest.fixture
def run_once(benchmark):
    """Run an experiment driver exactly once under pytest-benchmark timing.

    The drivers are macro-experiments (seconds each), so repeating them for
    statistical rounds would make the harness needlessly slow; a single timed
    round still produces a benchmark entry with the elapsed time.
    """

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
