"""Command-line interface: serve a broker network, or observe a seeded one.

Usage::

    python -m repro.analysis.cli serve --topology tree --brokers 3
    python -m repro.analysis.cli metrics --seed 17 --output out/

``serve`` boots a networked topology; ``metrics`` runs E-METRICS, a seeded
tree scenario observed through the full observability layer
(:func:`run_metrics_scenario`).  The experiments that regenerate the tables
in ``benchmarks/results/`` are scripts under ``experiments/`` (the README's
"Tests and benchmarks" lists them), which a product module may not import.
No subcommand takes a curve: every network keys its match indexes on the Z
curve.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
from dataclasses import dataclass
from typing import Dict

from ..obs.exposition import snapshot as metrics_snapshot
from ..obs.exposition import validate_prometheus_text, write_bench_json
from ..obs.registry import MetricsRegistry
from ..obs.trace import TraceLog
from ..pubsub.network import BrokerNetwork, chain_topology, star_topology, tree_topology
from ..pubsub.subscription import Event
from ..sim.transport import SimTransport
from ..workloads.generators import (
    EventWorkload,
    mixed_width_workload,
    spec_subscription,
    xy_schema,
)
from .reporting import ResultTable, format_critical_path, format_trace_tree

__all__ = ["main", "MetricsScenarioResult", "run_metrics_scenario"]

#: E-METRICS' scenario: brokers in a tree, subscriptions placed on them, events published.
METRICS_BROKERS, METRICS_SUBSCRIPTIONS, METRICS_EVENTS = 7, 60, 20


@dataclass
class MetricsScenarioResult:
    """Everything the observability layer produces for one seeded scenario.

    ``table`` holds one row per published event (trace id, hop count,
    delivery audit); ``prometheus_text`` / ``snapshot`` are the registry's two
    exposition forms; ``trace_tree`` / ``critical_path`` render the first
    audited event's trace.  ``network`` is the live network for callers that
    want to drill further (tests compare its trace hop paths against the
    overlay routes the delivery audit expects).
    """

    table: ResultTable
    prometheus_text: str
    snapshot: Dict[str, object]
    trace_tree: str
    critical_path: str
    network: BrokerNetwork


def run_metrics_scenario(seed: int) -> MetricsScenarioResult:
    """E-METRICS: a seeded tree scenario observed through the full obs layer.

    Builds a broker tree on a seeded :class:`~repro.sim.transport.SimTransport`
    with an enabled metrics registry and trace log, runs a mixed-width
    subscription workload plus a publish stream, and returns the Prometheus
    text, the JSON snapshot and per-event trace summaries.  Fully
    deterministic: two calls with the same seed return byte-identical
    ``prometheus_text`` (pinned by tests).
    """
    order = 8
    schema = xy_schema(order)
    specs = mixed_width_workload(
        attributes=2,
        order=order,
        count=METRICS_SUBSCRIPTIONS,
        narrow_fraction=0.8,
        narrow_width=0.15,
        wide_width=0.55,
        seed=seed,
        prefix="sub",
    )
    event_cells = EventWorkload(
        attributes=2, attribute_order=order, seed=seed + 1
    ).generate(METRICS_EVENTS)
    network = BrokerNetwork.from_topology(
        schema,
        tree_topology(METRICS_BROKERS),
        covering="approximate",
        seed=seed,
        transport=SimTransport(seed=seed),
        metrics=MetricsRegistry(),
        tracing=TraceLog(capacity=4096, seed=seed),
    )
    rng = random.Random(seed + 2)
    placements = [rng.randrange(METRICS_BROKERS) for _ in specs]
    publish_at = [rng.randrange(METRICS_BROKERS) for _ in event_cells]
    for spec, broker_id in zip(specs, placements):
        network.subscribe(broker_id, f"client-{spec.sub_id}", spec_subscription(schema, spec))
    network.flush()

    table = ResultTable("E-METRICS: traced event routing on a broker tree")
    for i, cells in enumerate(event_cells):
        event = Event(
            schema,
            {
                name: schema.dequantize_value(name, cell)
                for name, cell in zip(schema.names, cells)
            },
            event_id=f"event-{i}",
        )
        origin = publish_at[i]
        missed, extra = network.publish_and_audit(origin, event)
        expected = network.expected_recipients(event, origin=origin)
        trace_id = network.tracing.trace_id_for("evt", event.event_id)
        table.add(
            event_id=event.event_id,
            origin=origin,
            trace_id=trace_id,
            hops=len(network.tracing.hop_spans(trace_id)),
            delivered=len(expected) - len(missed) + len(extra),
            missed=len(missed),
        )

    prometheus_text = network.scrape()
    first_trace = network.tracing.trace_id_for("evt", "event-0")
    first_spans = network.tracing.spans(trace_id=first_trace)
    return MetricsScenarioResult(
        table=table,
        prometheus_text=prometheus_text,
        snapshot=metrics_snapshot(network.metrics),
        trace_tree=format_trace_tree(first_spans, title="trace event-0"),
        critical_path=format_critical_path(first_spans, title="event-0"),
        network=network,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis.cli",
        description="Serve a broker network, or observe a seeded one.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
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


def _run_metrics(seed: int, output: pathlib.Path | None) -> None:
    """The ``metrics`` subcommand: scenario → validated exposition + trace tree."""
    result = run_metrics_scenario(seed)
    # Validation before printing: a malformed exposition is a bug, not output.
    validate_prometheus_text(result.prometheus_text)
    print(result.table.to_text())
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
    if args.command == "serve":
        return _run_serve(args.topology, args.brokers, args.host)
    _run_metrics(args.seed, args.output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
