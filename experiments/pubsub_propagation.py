"""E-PUBSUB: subscription propagation in a broker tree, per covering kind.

The motivation of the paper's Section 1: covering shrinks routing tables and
subscription traffic while never losing events (a missed cover only costs an
extra forward; it cannot suppress a needed subscription).  A broker link
checks covering with one exact scan of the subscriptions it forwarded, which
meets the paper's ε-approximate contract for every ε: that is the
``approximate`` row.  The workload mixes narrow subscriptions with a share of
broad ones, and every event is published through the delivery audit.  From
the repository root::

    python3 experiments/pubsub_propagation.py           # seconds
    python3 experiments/pubsub_propagation.py --smoke   # tiny sizes, writes nothing

At full size it rewrites ``pubsub_propagation.txt`` (and its ``BENCH_*.json``)
in ``benchmarks/results/``, then asserts the claims.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time
from typing import Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.reporting import ResultTable  # noqa: E402
from repro.obs.exposition import write_bench_json  # noqa: E402
from repro.pubsub.network import BrokerNetwork, tree_topology  # noqa: E402
from repro.pubsub.routing_table import COVERING_KINDS  # noqa: E402
from repro.pubsub.subscription import Event  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    EventWorkload,
    mixed_width_workload,
    spec_subscription,
    xy_schema,
)

RESULTS = ROOT / "benchmarks" / "results"
#: ``(brokers, subscriptions, events)``.
FULL = (7, 150, 40)
SMOKE = (5, 40, 10)
ORDER = 9
SEED = 9


def propagation(brokers: int, subscriptions: int, events: int) -> ResultTable:
    """One row per kind in ``COVERING_KINDS``."""
    table = ResultTable("E-PUBSUB: subscription propagation in a broker tree")
    schema = xy_schema(ORDER)
    specs = mixed_width_workload(
        attributes=2,
        order=ORDER,
        count=subscriptions,
        narrow_fraction=0.8,
        narrow_width=0.15,
        wide_width=0.55,
        seed=SEED,
        prefix="sub",
    )
    event_cells = EventWorkload(attributes=2, attribute_order=ORDER, seed=SEED + 1).generate(events)
    rng = random.Random(SEED + 2)
    placements = [rng.randrange(brokers) for _ in specs]
    publish_at = [rng.randrange(brokers) for _ in event_cells]

    for kind in COVERING_KINDS:
        network = BrokerNetwork.from_topology(
            schema, tree_topology(brokers), covering=kind, seed=SEED
        )
        start = time.perf_counter()
        for spec, broker_id in zip(specs, placements):
            network.subscribe(broker_id, f"client-{spec.sub_id}", spec_subscription(schema, spec))
        propagation_time = time.perf_counter() - start
        for origin, cells in zip(publish_at, event_cells):
            event = Event(
                schema,
                {name: schema.dequantize_value(name, cell) for name, cell in zip(schema.names, cells)},
            )
            network.publish_and_audit(origin, event)
        table.add(
            strategy=kind,
            routing_table_entries=network.routing_table_entries(),
            subscription_messages=network.subscription_messages,
            suppressed=sum(b.stats.subscriptions_suppressed for b in network.brokers.values()),
            covering_work_units=sum(b.stats.covering_check_runs for b in network.brokers.values()),
            propagation_seconds=round(propagation_time, 4),
            events_missed=network.audited_missed,
        )
    return table


def check(table: ResultTable) -> None:
    """Covering shrinks routing state and subscription traffic, and no
    covering kind loses an event."""
    rows = {row["strategy"]: row for row in table.rows}
    assert set(rows) == {"none", "approximate"}
    assert rows["approximate"]["routing_table_entries"] < rows["none"]["routing_table_entries"]
    assert rows["approximate"]["subscription_messages"] < rows["none"]["subscription_messages"]
    assert all(row["events_missed"] == 0 for row in table.rows)


def main(argv: Sequence[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, nothing written")
    smoke = parser.parse_args(argv).smoke
    table = propagation(*(SMOKE if smoke else FULL))
    print(table.to_text())
    if not smoke:
        (RESULTS / "pubsub_propagation.txt").write_text(table.to_text() + "\n")
        write_bench_json(RESULTS / "BENCH_pubsub_propagation.json", table.rows)
    check(table)


if __name__ == "__main__":
    main()
