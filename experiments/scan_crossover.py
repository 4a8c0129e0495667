"""Where an interface table's match index starts to beat its scan: probe side, write side, crossover.

An :class:`~repro.pubsub.routing_table.InterfaceTable` scans its
subscriptions while it holds at most ``InterfaceTable.SCAN_LIMIT`` of them and
builds a :class:`~repro.pubsub.match_index.MatchIndex` on the add past it.
This script prices both at each table size N (stock-scenario subscriptions,
order 10, d = 3), through the table itself:

* per probe: ``matching_ids`` (what local delivery asks) and ``any_match``
  (what a neighbour table is asked), on a table held scanning and on one
  whose index one bulk load has flattened, one sweep over stock events per
  turn.  The events are keyed before the sweep: a network keys an event
  once however many tables probe it, so a probe pays a memo read;
  ``key_us``, printed below the table, is what that one keying costs;
* per write: ``add`` and ``remove`` on a fresh table held at N by churn
  (withdraw the oldest subscription, add a fresh one), each timed on its
  own, one churn per turn.  The index's flattens and compaction sweeps land
  in the write that triggers them, so the column is the amortised cost.  Its
  rectangles' key runs are read from a run cache another table has filled,
  as at every hop but the first in a network.

Every column is the best of ``--repeat`` turns; in each turn the scan and
the index run back to back, which goes first alternating, with the collector
off.  From those rows the script prints, per probe kind and for r = 1, 10
and 100 probes per write and at ``LIMIT_RATIO``, the crossover: the table size from which
``write + r · probe`` is cheaper for the index at every measured size,
interpolated linearly between the two measured sizes around it (``<= N``
when the index is cheaper at every size, ``> N`` when it is not at the
largest).  A write is the mean of one add and one remove.
``InterfaceTable.SCAN_LIMIT`` is the ``matching_ids`` crossover at
``LIMIT_RATIO``, the fewest probes per write ``experiments/table_traffic.py``
counts for a local-client table (the one local delivery asks
``matching_ids``) on the benchmark's gated workloads; it is printed below
the crossovers.  A neighbour table is asked ``any_match``: on stock events
the scan's stops at an early hit, and the index's does not cross below 256
subscriptions.

An experiment, not a test: timings are taken on whatever host runs it.
From the repository root::

    python3 experiments/scan_crossover.py                      # N = 8 ... 256
    python3 experiments/scan_crossover.py --sizes 8 16 --repeat 1

The output is printed and written to ``experiments/out/scan_crossover.txt``
(untracked) unless ``--out`` names another file.
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import sys
import time
from typing import Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.reporting import format_table  # noqa: E402
from repro.pubsub.routing_table import InterfaceTable, RoutingTable  # noqa: E402
from repro.pubsub.subscription import Event, Subscription  # noqa: E402
from repro.pubsub.subscription_store import ProfileCache  # noqa: E402
from repro.workloads.scenarios import stock_market_scenario  # noqa: E402

SIZES = (8, 16, 32, 48, 64, 96, 128, 256)
#: Probes per write the crossover is computed at, besides ``LIMIT_RATIO``.
RATIOS = (1, 10, 100)
#: The ratio ``InterfaceTable.SCAN_LIMIT`` is read at: the local-client
#: tables' probes per write on ``sub-tree7-sync``, the fewest of the gated
#: workloads (``experiments/table_traffic.py``, seeds 1 and 2: 15.4 and 15.5;
#: ``churn-grid12-sim`` 20.8 / 20.4, ``pub-chain3-sync`` 138 / 137).
LIMIT_RATIO = 15
PROBES = ("matching_ids", "any_match")
SIDES = ("scan", "index")
WRITES = ("add", "remove")
#: Stock events per probe sweep.
EVENTS = 2000
#: Churn steps (one withdrawal and one add each) per write measurement, at least.
CHURN = 512


class Tables:
    """Scanning and indexed tables of one routing table, over one stock pool."""

    def __init__(self, seed: int, pool: int) -> None:
        scenario = stock_market_scenario(num_subscriptions=pool, num_events=EVENTS, seed=seed)
        self.schema = scenario.schema
        self.pool = [
            Subscription(self.schema, constraints, sub_id=f"s{number}")
            for number, constraints in enumerate(scenario.subscriptions)
        ]
        self.routing = RoutingTable(self.schema, run_cache=ProfileCache())
        self.events = [Event(self.schema, values) for values in scenario.events]
        self.routing.event_keys(self.events)
        self._made = 0

    def table(self, scan_limit: int, first: Sequence[Subscription]) -> InterfaceTable:
        """A new table of the routing table, holding ``first``, that scans up to ``scan_limit``."""
        self._made += 1
        table = self.routing.table(self._made)
        table.SCAN_LIMIT = scan_limit  # the instance attribute shadows the class constant
        for subscription in first:
            table.add(subscription)
        return table

    def scanning(self, n: int) -> InterfaceTable:
        return self.table(1 << 62, self.pool[:n])

    def indexed(self, n: int) -> InterfaceTable:
        """A table whose index one bulk load built and flattened from its ``n`` subscriptions."""
        table = self.table(n - 1, self.pool[:n])
        assert table.match_index is not None and not table.match_index._flat.staged
        return table


def sweep_us(table: InterfaceTable, kind: str, events: Sequence[Event]) -> float:
    """µs per probe of one ``kind`` sweep of ``table`` over ``events``."""
    probe = getattr(table, kind)
    start = time.perf_counter()
    for event in events:
        probe(event)
    return (time.perf_counter() - start) / len(events) * 1e6


def churn_us(table: InterfaceTable, pool: Sequence[Subscription]) -> Dict[str, float]:
    """µs per add and per remove on ``table``, held at its size by churn.

    ``table`` holds the first ``len(table)`` subscriptions of ``pool``; each
    step withdraws the oldest and adds the next, ``max(CHURN, 4 · len(table))``
    steps in all.
    """
    n = len(table)
    steps = max(CHURN, 4 * n)
    add = remove = 0.0
    clock = time.perf_counter
    for step in range(steps):
        old = pool[step].sub_id
        subscription = pool[n + step]
        start = clock()
        table.remove(old)
        middle = clock()
        table.add(subscription)
        add += clock() - middle
        remove += middle - start
    assert len(table) == n
    return {"add": add / steps * 1e6, "remove": remove / steps * 1e6}


def measure(tables: Tables, n: int, repeat: int) -> Dict[str, object]:
    """One row: both sides' probe and write costs at table size ``n``, the collector off."""
    gc.collect()
    gc.disable()
    try:
        return _measure(tables, n, repeat)
    finally:
        gc.enable()


def _measure(tables: Tables, n: int, repeat: int) -> Dict[str, object]:
    """Best of ``repeat`` turns, the two sides back to back in each, alternating which goes first.

    A probe sweep reuses one table per side; a churn runs on a fresh one.
    The index side churns once untimed first, so its timed churns read every
    rectangle's key runs from the shared run cache.
    """
    events = tables.events
    probed = {"scan": tables.scanning(n), "index": tables.indexed(n)}
    bits = probed["index"].match_index.precision_bits
    fresh = {"scan": tables.scanning, "index": tables.indexed}
    churn_us(tables.indexed(n), tables.pool)
    best: Dict[str, float] = {}
    for turn in range(repeat):
        for side in SIDES if turn % 2 == 0 else SIDES[::-1]:
            measured = {f"{kind}_us": sweep_us(probed[side], kind, events) for kind in PROBES}
            measured.update(
                (f"{op}_us", value) for op, value in churn_us(fresh[side](n), tables.pool).items()
            )
            for name, value in measured.items():
                name = f"{side}_{name}"
                best[name] = min(best.get(name, value), value)
    grid = probed["index"].match_index.precision_bits
    assert grid == bits, "probing a flattened index must not step its grid"
    row: Dict[str, object] = {"N": n, "bits": bits}
    columns = [f"{side}_{kind}_us" for kind in PROBES for side in SIDES]
    columns += [f"{side}_{op}_us" for side in SIDES for op in WRITES]
    row.update((name, round(best[name], 3)) for name in columns)
    return row


def write_us(row: Dict[str, object], side: str) -> float:
    """The mean of one add and one remove on ``side``."""
    return (row[f"{side}_add_us"] + row[f"{side}_remove_us"]) / 2


def crossover(rows: Sequence[Dict[str, object]], kind: str, ratio: float) -> Optional[float]:
    """The table size from which the index costs less than the scan at ``ratio`` probes per write.

    Each side costs ``write + ratio · probe`` per write; the crossover lies
    between the last measured size where the index costs more (or the same)
    and the next, interpolated linearly on the difference.  It is the
    smallest size when the index is cheaper at every size, and ``None`` when
    it is not cheaper at the largest.
    """
    rows = sorted(rows, key=lambda row: row["N"])
    excess = [
        write_us(row, "index") + ratio * row[f"index_{kind}_us"]
        - write_us(row, "scan") - ratio * row[f"scan_{kind}_us"]
        for row in rows
    ]
    dearer = [i for i, value in enumerate(excess) if value >= 0]
    if not dearer:
        return float(rows[0]["N"])
    last = dearer[-1]
    if last == len(rows) - 1:
        return None
    low, high = rows[last]["N"], rows[last + 1]["N"]
    return low + (high - low) * excess[last] / (excess[last] - excess[last + 1])


def format_crossovers(rows: Sequence[Dict[str, object]]) -> str:
    sizes = sorted(row["N"] for row in rows)
    lines = ["crossover N (index cheaper from here on), by probes per write:"]
    lines.append("  " + "r".rjust(5) + "".join(kind.rjust(16) for kind in PROBES))
    for ratio in sorted(set(RATIOS) | {LIMIT_RATIO}):
        cells = []
        for kind in PROBES:
            at = crossover(rows, kind, ratio)
            if at is None:
                cells.append(f"> {sizes[-1]}")
            elif at == sizes[0]:
                cells.append(f"<= {sizes[0]}")
            else:
                cells.append(f"{at:.0f}")
        lines.append("  " + str(ratio).rjust(5) + "".join(cell.rjust(16) for cell in cells))
    lines.append(
        f"  (InterfaceTable.SCAN_LIMIT = {InterfaceTable.SCAN_LIMIT}: "
        f"the matching_ids crossover at r = {LIMIT_RATIO}, the local tables' "
        "fewest probes per write on the gated workloads)"
    )
    return "\n".join(lines) + "\n"


def key_us(tables: Tables, repeat: int) -> float:
    """µs to key one event (best of ``repeat`` sweeps), which a network of scanning tables saves.

    Each sweep reads ``Event.key`` once on fresh copies of the events (a read
    keys an event only the first time), as the first indexed probe does.
    """
    best = float("inf")
    for _ in range(repeat):
        fresh = [Event(tables.schema, event.values) for event in tables.events]
        start = time.perf_counter()
        for event in fresh:
            event.key
        best = min(best, time.perf_counter() - start)
    return best / len(tables.events) * 1e6


def main(argv: Sequence[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument(
        "--out", type=pathlib.Path, default=ROOT / "experiments" / "out" / "scan_crossover.txt"
    )
    args = parser.parse_args(argv)
    if min(args.sizes) < 1 or args.repeat < 1:
        parser.error("--sizes and --repeat must be at least 1")
    largest = max(args.sizes)
    tables = Tables(args.seed, largest + max(CHURN, 4 * largest))
    rows: List[Dict[str, object]] = [
        measure(tables, n, args.repeat) for n in sorted(set(args.sizes))
    ]
    title = (
        f"scan vs index, µs per probe and per write: stock, seed {args.seed}, "
        f"best of {args.repeat}"
    )
    out = format_table(rows, title=title, precision=3) + "\n"
    out += (
        f"\nkey_us {key_us(tables, args.repeat):.3f}   (one event's Z key, paid once "
        "per event when a table on its path indexes)\n"
    )
    out += "\n" + format_crossovers(rows)
    print(out, end="")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(out)


if __name__ == "__main__":
    main()
