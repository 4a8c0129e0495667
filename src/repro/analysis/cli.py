"""Command-line interface for the experiment drivers.

Usage::

    python -m repro.analysis.cli list
    python -m repro.analysis.cli run fig2
    python -m repro.analysis.cli run all --output results/

Each experiment name maps to one driver in :mod:`repro.analysis.experiments`
(the same drivers the benchmark harness calls), so the CLI is a convenient way
to regenerate a single table without going through pytest.  The systems
experiments that own their sizes (E-SIM-LATENCY, E-TOPO-SCALE,
E-MATCH-SCALE) are scripts under ``experiments/`` instead, which a product
module may not import.  No subcommand
takes a curve: every network keys its match indexes on the Z curve.  Only
``list``, ``run`` and ``metrics`` import the driver module, so ``serve`` loads
none of the paper's code.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Callable, Dict

from ..obs.exposition import validate_prometheus_text, write_bench_json

__all__ = ["main", "EXPERIMENTS", "driver"]


#: Experiment name -> the name of its driver in :mod:`repro.analysis.experiments`.
EXPERIMENTS: Dict[str, str] = {
    "fig1": "run_fig1_experiment",
    "fig2": "run_fig2_experiment",
    "thm31": "run_thm31_experiment",
    "lem32": "run_lem32_experiment",
    "thm41": "run_thm41_experiment",
    "cost": "run_approx_vs_exhaustive_experiment",
    "recall": "run_recall_experiment",
    "pubsub": "run_pubsub_experiment",
    # The driver's defaults are CLI-sized; the full 10k-50k churn
    # measurement lives in benchmarks/bench_subscription_churn.py.
    "churn": "run_subscription_churn_experiment",
    "curve-ablation": "run_curve_ablation_experiment",
    "dimensionality": "run_dimensionality_experiment",
    "throughput": "run_throughput_experiment",
}


def driver(name: str) -> Callable[..., object]:
    """The callable that regenerates experiment ``name``'s table."""
    from . import experiments

    return getattr(experiments, EXPERIMENTS[name])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis.cli",
        description="Regenerate the paper-reproduction experiment tables.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    run = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"])
    run.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help="directory to also write each table to (one .txt file per experiment)",
    )
    serve = subparsers.add_parser(
        "serve",
        help=(
            "boot a networked broker topology: one TCP server per broker "
            "speaking the versioned wire protocol, /metrics on the same port"
        ),
    )
    serve.add_argument(
        "--topology", choices=("tree", "chain", "star"), default="tree",
        help="overlay shape (default: tree)",
    )
    serve.add_argument(
        "--brokers", type=int, default=3, help="number of brokers (default: 3)"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="interface to bind (default: loopback)"
    )
    metrics = subparsers.add_parser(
        "metrics",
        help=(
            "run a seeded tree scenario through the observability layer and "
            "print its Prometheus exposition plus a trace tree"
        ),
    )
    metrics.add_argument("--seed", type=int, default=17)
    metrics.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help=(
            "directory to write metrics.prom (Prometheus text) and "
            "BENCH_metrics.json (JSON snapshot) to"
        ),
    )
    return parser


def _run_one(name: str, output: pathlib.Path | None) -> None:
    table = driver(name)()
    text = table.to_text()  # type: ignore[attr-defined]
    print(text)
    print()
    if output is not None:
        output.mkdir(parents=True, exist_ok=True)
        (output / f"{name}.txt").write_text(text + "\n")


def _run_metrics(seed: int, output: pathlib.Path | None) -> None:
    """The ``metrics`` subcommand: scenario → validated exposition + trace tree."""
    from .experiments import run_metrics_scenario

    result = run_metrics_scenario(seed=seed)
    # Validation before printing: a malformed exposition is a bug, not output.
    validate_prometheus_text(result.prometheus_text)
    print(result.to_text())
    print()
    print(result.trace_tree)
    print()
    print(result.critical_path)
    print()
    print(result.prometheus_text, end="")
    if output is not None:
        output.mkdir(parents=True, exist_ok=True)
        (output / "metrics.prom").write_text(result.prometheus_text)
        write_bench_json(output / "BENCH_metrics.json", result.snapshot)


def _run_serve(topology: str, brokers: int, host: str) -> int:
    """The ``serve`` subcommand: boot a topology and serve it until shutdown.

    Prints one ``BROKER <id> <host> <port>`` line per broker followed by
    ``SERVING`` once every server accepts connections, then blocks until a
    client sends a ``shutdown`` command (see :class:`repro.net.NetClient`).
    """
    from ..net import NetTransport, serve_network
    from ..pubsub.network import (
        BrokerNetwork,
        chain_topology,
        star_topology,
        tree_topology,
    )
    from ..workloads.scenarios import stock_market_scenario

    builders = {"tree": tree_topology, "chain": chain_topology, "star": star_topology}
    if brokers < 2:
        raise SystemExit("serve needs at least 2 brokers")
    schema = stock_market_scenario(num_subscriptions=0, num_events=0).schema
    network = BrokerNetwork.from_topology(
        schema,
        builders[topology](brokers),
        covering="approximate",
        transport=NetTransport(host=host),
    )

    def on_ready(addresses: Dict[object, tuple]) -> None:
        for broker_id in sorted(addresses, key=str):
            bound_host, port = addresses[broker_id]
            print(f"BROKER {broker_id} {bound_host} {port}", flush=True)
        print("SERVING", flush=True)

    serve_network(network, on_ready=on_ready)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            doc = (driver(name).__doc__ or "").strip().splitlines()[0]
            print(f"{name:15s} {doc}")
        return 0
    if args.command == "serve":
        return _run_serve(args.topology, args.brokers, args.host)
    if args.command == "metrics":
        _run_metrics(args.seed, args.output)
        return 0
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        _run_one(name, args.output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
