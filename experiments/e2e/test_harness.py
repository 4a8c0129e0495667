"""Tier-1 checks of the benchmark harness itself, at ``--smoke`` size.

Collected by the repository's bare ``pytest``; every run goes through the
command line a user (and the benchmark driver) would type, from the
repository root, in a fresh interpreter.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from .metrics import END_TO_END, PER_LAYER
from .report import compare
from .workloads import DEFAULT_SECONDS, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_NAMES = [metric["name"] for metric in MANIFEST["end_to_end"]]
LAYER_NAMES = [metric["name"] for metric in MANIFEST["per_layer"]]
SEED = 5


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "experiments.e2e", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``smoke(workload, trace, label)`` -> (contract line, full result, directory).

    Each distinct call runs the benchmark once at smoke size; tests share the
    runs through the cache.
    """
    cache = {}

    def run(workload: str, trace: int, label: str = "first"):
        key = (workload, trace, label)
        if key not in cache:
            directory = tmp_path_factory.mktemp(f"{workload}-{trace}-{label}")
            out = directory / "result.json"
            done = _run(
                "run", "--workload", workload, "--seed", str(SEED), "--smoke",
                "--trace", str(trace), "--out", str(out),
            )
            assert done.returncode == 0, done.stderr
            summary = json.loads(done.stdout.splitlines()[-1])
            passes = json.loads(out.read_text(encoding="utf-8"))["workloads"][workload]
            cache[key] = summary, passes["traced" if trace else "untraced"], directory
        return cache[key]

    return run


def test_manifest_declares_what_the_code_reports():
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["end_to_end"]] == [
        tuple(metric) for metric in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == [
        (metric.name, metric.unit, metric.better) for metric in PER_LAYER
    ]
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (workload.name, workload.why) for workload in WORKLOADS.values() if workload.gated
    ]
    assert MANIFEST["run_seconds"] == DEFAULT_SECONDS
    assert MANIFEST["paths"] == ["experiments/e2e"]
    assert all(0 < metric["bound"] <= 0.25 for metric in MANIFEST["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_pass_reports_every_end_to_end_metric(workload, smoke):
    summary, result, _ = smoke(workload, 0)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= 1
    assert list(summary["metrics"]) == E2E_NAMES
    units = {metric["name"]: metric["unit"] for metric in MANIFEST["end_to_end"]}
    for name, row in summary["metrics"].items():
        assert row["unit"] == units[name]
        assert row["value"] > 0, name
    assert result["checked_publishes"] >= result["sizes"]["audit_publishes"]
    assert result["host"]["hash_seed"] == "0"
    spin = result["host"]["host_spin_ms"]
    assert spin["before"] > 0 and spin["after"] > 0 and spin["nominal"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_pass_repeats_its_counts_exactly(workload, smoke):
    first_summary, first, directory = smoke(workload, 1)
    second_summary, second, _ = smoke(workload, 1, "second")
    for summary in (first_summary, second_summary):
        assert summary["failed"] == 0
        assert list(summary["metrics"]) == LAYER_NAMES
    assert first["trace_missing"] == []
    # FrameDecoder.feed runs once per socket read, and how TCP coalesces frames
    # into reads is the kernel's business: the one call count that may differ.
    exact = [
        name for name in LAYER_NAMES if name.endswith(".calls") and name != "net.decode.calls"
    ] + ["sim.sim_latency_p99"]
    for name in exact:
        assert first["per_layer"][name] == second["per_layer"][name], name
    for name in ("routing_entries", "subscription_messages"):
        assert first[name] == second[name] and first[name] > 0, name
    # Self times of the control thread tile the traced API calls.
    assert 0.85 <= first["per_layer"]["trace.self_sum_share"] <= 1.0
    with open(directory / f"trace-{workload}.jsonl", encoding="utf-8") as spans:
        header = json.loads(spans.readline())
    assert header["fields"] == ["id", "name", "start", "end", "parent", "op", "thread"]
    assert header["stored"] == first["spans"]["stored"] > 0


def test_every_layer_does_work_on_some_workload(smoke):
    seen = set()
    for workload in WORKLOADS:
        _, result, _ = smoke(workload, 1)
        seen |= {name for name, value in result["per_layer"].items() if value is not None}
    assert seen == set(LAYER_NAMES)


def test_fails_without_the_program(tmp_path):
    """Alone with BENCHMARK.json the benchmark exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "experiments" / "e2e", tmp_path / "experiments" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "results"),
    )
    done = _run(
        "run", "--workload", "sub-tree7-sync", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _doc(value: float, q1: float, q3: float) -> dict:
    rows = {name: {"value": 10.0, "unit": "x"} for name in E2E_NAMES}
    rows["subscribe_per_s"] = {"value": value, "q1": q1, "q3": q3, "unit": "1/s"}
    return {"workloads": {"sub-tree7-sync": {"untraced": {"end_to_end": rows}}}}


def test_compare_tells_regression_from_noise(capsys):
    bound = next(m["bound"] for m in MANIFEST["end_to_end"] if m["name"] == "subscribe_per_s")
    baseline = _doc(100.0, 99.0, 101.0)
    slightly_worse = 100.0 * (1 - bound / 3)
    assert compare(baseline, _doc(slightly_worse, slightly_worse - 1, slightly_worse + 1), MANIFEST) == 0
    clearly_worse = 100.0 * (1 - 2 * bound)
    assert compare(baseline, _doc(clearly_worse, clearly_worse - 1, clearly_worse + 1), MANIFEST) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # Windows spread wider than the bound: a small change cannot be resolved...
    noisy = _doc(slightly_worse, slightly_worse * (1 - 2 * bound), slightly_worse * (1 + 2 * bound))
    assert compare(baseline, noisy, MANIFEST) == 0
    assert "unresolved" in capsys.readouterr().out
    # ...but a collapse beyond bound plus spread still counts.
    assert compare(baseline, _doc(10.0, 8.0, 12.0), MANIFEST) == 1
