"""Printing results, comparing two result files, and the append-only ledger."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

__all__ = ["load_manifest", "print_pass", "compare", "append_ledger", "LEDGER_PATH", "ROOT"]

ROOT = Path(__file__).resolve().parents[2]
LEDGER_PATH = Path(__file__).resolve().parent / "results" / "ledger.jsonl"


def load_manifest() -> Dict[str, object]:
    """``BENCHMARK.json``: the declared metric names, units, directions, bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _number(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return f"{int(value):,}"
    return f"{value:,.4g}"


def print_pass(result: Dict[str, object]) -> None:
    """One pass of one workload: every metric by name, with its unit."""
    kind = "traced" if result["trace"] else "untraced"
    print(
        f"\n== {result['workload']} ({kind}, seed {result['seed']}): "
        f"{result['windows']} windows in {result['timed_seconds']:.1f} s, "
        f"{result['attempted']} ops attempted, {result['failed']} failed"
    )
    for error in result["errors"]:
        print(f"   failed op: {error.strip().splitlines()[-1]}")
    for name, row in result.get("end_to_end", {}).items():
        extra = ""
        if row.get("q1") is not None:
            extra = f"  [q1 {_number(row['q1'])}, q3 {_number(row['q3'])}; n={row['samples']}]"
        elif "samples_beyond" in row:
            thin = "  THIN" if row["samples_beyond"] < 10 else ""
            extra = f"  [n={row['samples']}, {row['samples_beyond']} beyond]{thin}"
        print(f"   {name:<28} {_number(row['value']):>12} {row['unit']}{extra}")
    for name, value in result.get("per_layer", {}).items():
        print(f"   {name:<46} {_number(value):>12}")
    if result.get("trace_missing"):
        print(f"   trace_missing: {', '.join(result['trace_missing'])}")


# ------------------------------------------------------------------- compare
def _spread(row: Dict[str, object]) -> float:
    """Window spread of one metric: distance between quartiles over the median."""
    if row.get("q1") is None or not row.get("value"):
        return 0.0
    return (row["q3"] - row["q1"]) / abs(row["value"])


def _rows(doc: Dict[str, object]) -> Iterable[Tuple[str, Dict[str, Dict[str, object]]]]:
    for name, passes in doc["workloads"].items():
        untraced = passes.get("untraced")
        if untraced is not None:
            yield name, untraced["end_to_end"]


def compare(a: Dict[str, object], b: Dict[str, object], manifest: Dict[str, object]) -> int:
    """Print one row per workload × end-to-end metric; return the regression count.

    ``b`` regresses on a metric when it is worse than ``a`` by more than the
    metric's bound.  When the spread between the windows of either run is
    wider than the bound the row is ``unresolved`` instead of ``ok`` — and a
    worsening counts as a regression only once it clears bound plus spread.
    """
    declared = {m["name"]: m for m in manifest["end_to_end"]}
    b_rows = dict(_rows(b))
    regressions = 0
    print(f"{'workload':<18} {'metric':<24} {'A':>12} {'B':>12} {'change':>8} {'bound':>6} {'spread':>7}  verdict")
    for workload, a_metrics in _rows(a):
        b_metrics = b_rows.get(workload)
        if b_metrics is None:
            print(f"{workload:<18} missing from B")
            continue
        for name, meta in declared.items():
            row_a, row_b = a_metrics.get(name), b_metrics.get(name)
            if not row_a or not row_b or row_a["value"] is None or row_b["value"] is None:
                print(f"{workload:<18} {name:<24} not reported by both")
                continue
            va, vb = row_a["value"], row_b["value"]
            change = (vb - va) / abs(va) if va else 0.0
            worse = change if meta["better"] == "lower" else -change
            spread = max(_spread(row_a), _spread(row_b))
            bound = meta["bound"]
            if spread > bound and worse <= bound + spread:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(
                f"{workload:<18} {name:<24} {_number(va):>12} {_number(vb):>12} "
                f"{change:>+8.1%} {bound:>6.0%} {spread:>7.1%}  {verdict}"
            )
            if row_a.get("q1") is not None:
                print(
                    f"{'':<43} q1..q3 A {_number(row_a['q1'])}..{_number(row_a['q3'])}"
                    f"  B {_number(row_b['q1'])}..{_number(row_b['q3'])}"
                )
    return regressions


# -------------------------------------------------------------------- ledger
def append_ledger(doc: Dict[str, object], path: Path = LEDGER_PATH) -> None:
    """Append one compact line per run, keyed by git SHA, never rewriting."""
    entry = {key: doc[key] for key in ("git_sha", "git_dirty", "created", "seed", "seconds", "smoke")}
    entry["workloads"] = {}
    for name, passes in doc["workloads"].items():
        flat: Dict[str, Optional[float]] = {}
        if "untraced" in passes:
            flat.update({k: row["value"] for k, row in passes["untraced"]["end_to_end"].items()})
            flat["failed"] = passes["untraced"]["failed"]
        if "traced" in passes:
            flat.update(passes["traced"]["per_layer"])
        entry["workloads"][name] = flat
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
