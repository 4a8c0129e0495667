"""Command line of the end-to-end benchmark.

``run`` starts one fresh interpreter per workload and pass, with
``PYTHONHASHSEED=0`` (string-keyed sets iterate in hash order, and some of
the program's work counters depend on that order), waits for it, prints every
metric by name and unit, and finishes with one JSON line::

    {"correct": true, "attempted": 3210, "failed": 0, "metrics": {...}}

holding the end-to-end metrics of an untraced pass (``--trace 0``) or the
per-layer metrics of a traced one (``--trace 1``).  With no ``--workload`` it
runs all four, both passes each unless ``--trace`` picks one; the final line
then carries ``metrics`` per workload.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .metrics import PER_LAYER
from .report import ROOT, append_ledger, compare, load_manifest, print_pass
from .workloads import DEFAULT_SECONDS, WORKLOADS

#: A worker that has not finished by then is killed and the run fails
#: (the benchmark contract allows a run 180 s).
WORKER_TIMEOUT_S = 170


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _spawn_worker(args: argparse.Namespace, workload: str, trace: int) -> Dict[str, object]:
    """Run one pass of one workload in its own interpreter; return its result."""
    command = [
        sys.executable, "-m", "experiments.e2e", "_worker",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if trace and args.out:
        command += ["--trace-path", str(Path(args.out).resolve().parent / f"trace-{workload}.jsonl")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    # subprocess.run kills the child and waits for it when the timeout fires.
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    if done.returncode != 0:
        raise SystemExit(f"worker for {workload} (trace={trace}) exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _contract_metrics(result: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """``{name: {value, unit}}`` of one pass, as the benchmark contract prints it.

    A per-layer value the program cannot supply (``null`` in the result file:
    the layer does not exist on this transport, or a field is gone) is
    printed as 0 here, because the contract wants a number for every name.
    """
    if result["trace"]:
        units = {metric.name: metric.unit for metric in PER_LAYER}
        return {
            name: {"value": value if value is not None else 0, "unit": units[name]}
            for name, value in result["per_layer"].items()
        }
    return {
        name: {"value": row["value"], "unit": row["unit"]}
        for name, row in result["end_to_end"].items()
    }


def _run(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    passes = [args.trace] if args.trace is not None else ([0] if args.workload else [0, 1])
    doc: Dict[str, object] = {
        "schema": 1,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain")),
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {},
    }
    if args.out:
        # Before any worker runs: a traced worker writes its spans beside it.
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    metrics: Dict[str, Dict[str, Dict[str, object]]] = {}
    for name in names:
        for trace in passes:
            result = _spawn_worker(args, name, trace)
            print_pass(result)
            doc["workloads"].setdefault(name, {})["traced" if trace else "untraced"] = result
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.setdefault(name, {}).update(_contract_metrics(result))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.ledger:
        append_ledger(doc)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics[names[0]] if args.workload else metrics,
    }
    print(json.dumps(summary))
    return 0


def _worker(args: argparse.Namespace) -> int:
    # Imported here: only the worker needs the program under test.
    from .runner import run_workload

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    result = run_workload(
        workload, args.seed, args.seconds, bool(args.trace), trace_path=args.trace_path
    )
    result["smoke"] = args.smoke
    print(json.dumps(result))
    return 0


def _compare(args: argparse.Namespace) -> int:
    with open(args.a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(args.b, encoding="utf-8") as handle:
        b = json.load(handle)
    regressions = compare(a, b, load_manifest())
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


def _add_run_options(parser: argparse.ArgumentParser, worker: bool) -> None:
    parser.add_argument("--workload", choices=list(WORKLOADS), required=worker)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"length of the timed phase (default {DEFAULT_SECONDS}; 0 with --smoke: "
        "the fixed section only)",
    )
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None)
    parser.add_argument("--smoke", action="store_true", help="sizes / 20, fixed section only")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m experiments.e2e", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the benchmark")
    _add_run_options(run, worker=False)
    run.add_argument("--out", help="write the full result (and trace-<workload>.jsonl beside it)")
    run.add_argument("--ledger", action="store_true", help="append the result to results/ledger.jsonl")
    run.set_defaults(handler=_run)
    worker = commands.add_parser("_worker")  # one pass, in-process; what `run` spawns
    _add_run_options(worker, worker=True)
    worker.add_argument("--trace-path")
    worker.set_defaults(handler=_worker)
    cmp_parser = commands.add_parser("compare", help="compare two result files")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    cmp_parser.set_defaults(handler=_compare)
    args = parser.parse_args(argv)
    if getattr(args, "seconds", 0) is None:
        args.seconds = 0.0 if args.smoke else float(DEFAULT_SECONDS)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
