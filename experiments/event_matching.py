"""E-MATCH: per-interface event matching, linear scan vs the SFC match index.

Fact 2.1 makes a subscription rectangle a bounded set of key runs, so "does
event p match anything stored here?" becomes one ordered probe of the run
segments instead of a scan of every stored subscription.  One interface
table is filled with mostly narrow, a few broad subscriptions (the shape a
loaded broker sees); every size is past the table's scan limit, so it has
built its match index.  The scan and the index must agree on every event
(a disagreement raises); then ``any_match`` is timed over the event stream.
The agreement pass keys each event once and the key stays on it, so the
timed probes read it, as every probe after an event's first does in a
network.  By 1,000 stored subscriptions the index is decisively faster, the
regime a loaded broker runs in.  From the repository root::

    python3 experiments/event_matching.py           # seconds
    python3 experiments/event_matching.py --smoke   # tiny sizes, writes nothing

At full size it rewrites ``event_matching.txt`` (and its ``BENCH_*.json``) in
``benchmarks/results/``, then asserts the claims; ``--smoke`` skips the
timing claims.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.reporting import ResultTable  # noqa: E402
from repro.obs.exposition import write_bench_json  # noqa: E402
from repro.pubsub.routing_table import InterfaceTable  # noqa: E402
from repro.pubsub.subscription import Event  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    EventWorkload,
    mixed_width_workload,
    spec_subscription,
    xy_schema,
)

RESULTS = ROOT / "benchmarks" / "results"
#: ``(table sizes, events)``.
FULL = ((100, 1_000, 2_000), 400)
#: The smallest table that builds its index (a table that still scans makes
#: the experiment raise) and one three times the scan limit.
SMOKE = ((InterfaceTable.SCAN_LIMIT + 1, 3 * InterfaceTable.SCAN_LIMIT), 40)
ORDER = 8
SEED = 17


def event_matching(table_sizes: Sequence[int], events: int) -> ResultTable:
    """One row per table size: scan and index seconds over the event stream."""
    table = ResultTable("E-MATCH: event matching, linear scan vs SFC match index")
    schema = xy_schema(ORDER)
    stream = [
        Event(
            schema,
            {name: schema.dequantize_value(name, cell) for name, cell in zip(schema.names, cells)},
        )
        for cells in EventWorkload(attributes=2, attribute_order=ORDER, seed=SEED + 1).generate(
            events
        )
    ]

    for size in table_sizes:
        specs = mixed_width_workload(
            attributes=2,
            order=ORDER,
            count=size,
            narrow_fraction=0.95,
            narrow_width=0.05,
            wide_width=0.3,
            seed=SEED,
            prefix=f"match-{size}",
        )
        sfc = InterfaceTable("bench", schema)
        subscriptions = [spec_subscription(schema, spec) for spec in specs]

        def linear_any_match(event: Event) -> bool:
            for subscription in subscriptions:
                if subscription.matches(event):
                    return True
            return False

        build_start = time.perf_counter()
        for subscription in subscriptions:
            sfc.add(subscription)
        build_seconds = time.perf_counter() - build_start

        disagreements = sum(1 for event in stream if linear_any_match(event) != sfc.any_match(event))
        if disagreements:
            raise AssertionError(
                f"SFC match index disagrees with linear scan on {disagreements} events"
            )

        start = time.perf_counter()
        for event in stream:
            linear_any_match(event)
        linear_seconds = time.perf_counter() - start
        index = sfc.match_index
        if index is None:
            raise ValueError(
                f"a table of {size} subscriptions still scans; "
                f"sizes must exceed InterfaceTable.SCAN_LIMIT ({sfc.SCAN_LIMIT})"
            )
        index.stats.candidates_checked = 0
        index.stats.false_positives = 0
        start = time.perf_counter()
        for event in stream:
            sfc.any_match(event)
        sfc_seconds = time.perf_counter() - start

        table.add(
            subscriptions=size,
            events=events,
            linear_seconds=round(linear_seconds, 5),
            sfc_seconds=round(sfc_seconds, 5),
            speedup=round(linear_seconds / sfc_seconds, 2) if sfc_seconds else float("inf"),
            sfc_build_seconds=round(build_seconds, 4),
            segments=index.segment_count(),
            candidates_checked=index.stats.candidates_checked,
            false_positives=index.stats.false_positives,
        )
    return table


def check(table: ResultTable, timed: bool) -> None:
    """Rejections are a share of the candidates checked; when ``timed``, the
    index beats the scan at 1,000 and 2,000 stored subscriptions, with at
    least a 2× speedup at 2,000 (a generous margin: observed speedups are an
    order of magnitude).  ``event_matching`` already checked that the scan
    and the index agree on every event."""
    assert all(row["false_positives"] <= row["candidates_checked"] for row in table.rows)
    if timed:
        rows = {row["subscriptions"]: row for row in table.rows}
        assert rows[1_000]["sfc_seconds"] < rows[1_000]["linear_seconds"]
        assert rows[2_000]["sfc_seconds"] < rows[2_000]["linear_seconds"]
        assert rows[2_000]["speedup"] >= 2.0


def main(argv: Sequence[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, nothing written")
    smoke = parser.parse_args(argv).smoke
    table = event_matching(*(SMOKE if smoke else FULL))
    print(table.to_text())
    if not smoke:
        (RESULTS / "event_matching.txt").write_text(table.to_text() + "\n")
        write_bench_json(RESULTS / "BENCH_event_matching.json", table.rows)
    check(table, timed=not smoke)


if __name__ == "__main__":
    main()
