"""Probes per write of the interface tables on the end-to-end benchmark's workloads.

``InterfaceTable.SCAN_LIMIT`` trades an index's cheaper probe against its
dearer write, so where it lies depends on how many probes a table answers
per write: ``experiments/scan_crossover.py`` prints the crossover at a few
such ratios r, and this script counts r on the workloads of
``experiments/e2e``.  It runs one untraced pass of each named workload in
this process, with ``InterfaceTable``'s ``add`` / ``remove`` (a write) and
``matching_ids`` / ``any_match`` (a probe) wrapped to count per table,
from the end of setup on (the point where the runner takes its baseline
counters, ``adapter.layer_counters``), so a preload's writes do not count.

It prints, per workload and per table kind (``local``: a broker's
local-client table, which local delivery asks ``matching_ids``;
``neighbour``: a link's table, which forwarding asks ``any_match``), the
tables, their largest size, the writes, the probes, the probes per write
over all of them and the median of the tables' own ratios.

An experiment, not a test.  From the repository root::

    python3 experiments/table_traffic.py                     # the three gated workloads
    python3 experiments/table_traffic.py --smoke --workload sub-tree7-sync

The output is printed and written to ``experiments/out/table_traffic.txt``
(untracked) unless ``--out`` names another file.
"""

from __future__ import annotations

import argparse
import collections
import functools
import pathlib
import statistics
import sys
from typing import Dict, List, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from experiments.e2e import adapter, runner  # noqa: E402
from experiments.e2e.workloads import WORKLOADS  # noqa: E402
from repro.analysis.reporting import format_table  # noqa: E402
from repro.pubsub.broker import LOCAL_INTERFACE  # noqa: E402
from repro.pubsub.routing_table import InterfaceTable  # noqa: E402

GATED = ("sub-tree7-sync", "pub-chain3-sync", "churn-grid12-sim")
WRITES = ("add", "remove")
PROBES = ("matching_ids", "any_match")


def count_traffic(workload: str, seed: int, seconds: float, smoke: bool) -> List[Dict[str, object]]:
    """One pass of ``workload``; a row per table kind of its counted traffic."""
    counts: Dict[InterfaceTable, collections.Counter] = collections.defaultdict(collections.Counter)
    largest: Dict[InterfaceTable, int] = collections.defaultdict(int)
    counting = [False]
    originals = {name: getattr(InterfaceTable, name) for name in WRITES + PROBES}
    layer_counters = adapter.layer_counters

    def counted(name):
        original = originals[name]

        @functools.wraps(original)
        def wrapper(table, *args, **kwargs):
            if counting[0]:
                counts[table][name] += 1
                largest[table] = max(largest[table], len(table))
            return original(table, *args, **kwargs)

        return wrapper

    def setup_done(system):
        counting[0] = True
        return layer_counters(system)

    chosen = WORKLOADS[workload].smoke() if smoke else WORKLOADS[workload]
    try:
        for name in originals:
            setattr(InterfaceTable, name, counted(name))
        adapter.layer_counters = setup_done
        runner.run_workload(chosen, seed, seconds, False)
    finally:
        for name, original in originals.items():
            setattr(InterfaceTable, name, original)
        adapter.layer_counters = layer_counters
    if not counting[0]:
        raise RuntimeError("the runner never took its baseline counters: no timed phase counted")
    rows = []
    for kind in ("local", "neighbour"):
        tables = [t for t in counts if (t.interface_id == LOCAL_INTERFACE) == (kind == "local")]
        writes = sum(counts[t][name] for t in tables for name in WRITES)
        probes = sum(counts[t][name] for t in tables for name in PROBES)
        own = [
            sum(counts[t][name] for name in PROBES) / max(1, sum(counts[t][name] for name in WRITES))
            for t in tables
        ]
        rows.append({
            "workload": workload,
            "tables": kind,
            "count": len(tables),
            "largest": max((largest[t] for t in tables), default=0),
            "writes": writes,
            "probes": probes,
            "probes_per_write": round(probes / writes, 2) if writes else "-",
            "median_table": round(statistics.median(own), 2) if own else "-",
        })
    return rows


def main(argv: Sequence[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), default=list(GATED))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--smoke", action="store_true", help="the workloads' smoke sizes")
    parser.add_argument(
        "--out", type=pathlib.Path, default=ROOT / "experiments" / "out" / "table_traffic.txt"
    )
    args = parser.parse_args(argv)
    rows = [
        row
        for workload in args.workload
        for row in count_traffic(workload, args.seed, args.seconds, args.smoke)
    ]
    title = (
        f"interface-table probes per write after setup: seed {args.seed}, "
        f"{'smoke' if args.smoke else f'{args.seconds:g} s'}"
    )
    out = format_table(rows, title=title) + "\n"
    print(out, end="")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(out)


if __name__ == "__main__":
    main()
