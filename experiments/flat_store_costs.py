"""What the flat segment store's operations cost, by table size, and the cost model's unit costs.

The numbers the cost model of :class:`repro.index.sfc_array.FlatSegmentStore`
and :class:`repro.pubsub.match_index.MatchIndex` is sized from (README,
"Event-matching fast path"): a merge-rebuild on the numpy sweep and on the
Python one (what keys wider than 64 bits take), the same per stored run, a
stab of a clean table and of one carrying as many tombstones as compaction
allows, and what each slot waiting in the pending buffer adds to a probe.
A stab does not see staged slots (the match index tests each of them by its
rectangle), so that last column times ``MatchIndex.matching_ids`` on stock
events with and without the staged slots (charging switched off, so the
probes do not flatten them), and checks that the probe with them returns
every staged subscription an event matches.  The two sweeps alternate, one
pair per repeat, and the column is the median of the pairs' differences with
their range beside it: a difference of two ~100 µs probes is noise-sized at
a thousand slots, and a single best-of difference could print it with
either sign.

Below the table the script prints the unit costs: ``c_test``, the median
cost of one staged slot to a probe; ``c_fix`` and ``c_run``, the intercept
and slope of a least-squares line through the (runs, rebuild) points of the
rows of at most ``FIT_SLOTS`` slots (printed beside the fit); and their
ratios ``c_fix / c_test`` and ``c_run / c_test``, which are
``FlatSegmentStore.FLATTEN_TESTS`` and ``RUN_TESTS`` (printed beside them).
A cost that comes out non-positive gets no ratio: ``-`` and the reason.
Slots hold the key runs the product configuration stores for stock-scenario
subscriptions (at most 64 each) on the grid an index of that many
subscriptions decomposes on: ``bits`` per dimension, which grows with the
table (``MatchIndex``), hence the ``runs/slot`` column.  The staged
subscriptions stop short of the table's next grid step, which would
re-derive and re-flatten every slot.

An experiment, not a test: timings are best-of-``--repeat`` on whatever host
runs it.  From the repository root::

    python3 experiments/flat_store_costs.py                  # 4 ... 4,096 slots
    python3 experiments/flat_store_costs.py --slots 4 32 --repeat 2

The table is printed and written to ``experiments/out/flat_store_costs.txt``
(untracked) unless ``--out`` names another file.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.reporting import format_table  # noqa: E402
from repro.geometry.universe import pack_point  # noqa: E402
from repro.index.sfc_array import FlatSegmentStore  # noqa: E402
from repro.pubsub.match_index import MatchIndex  # noqa: E402
from repro.pubsub.subscription import Subscription  # noqa: E402
from repro.workloads.scenarios import stock_market_scenario  # noqa: E402

SIZES = (4, 8, 20, 32, 128, 1024, 4096)
#: The largest table whose rebuild enters the ``c_fix`` / ``c_run`` fit.  The
#: flattens the cost model prices are those of tables about this small; the
#: 1,024- and 4,096-slot rebuilds (tens of milliseconds) would own a line
#: through every row and, on a shared host, drag its intercept below zero.
FIT_SLOTS = 128
Ranges = Tuple[Tuple[int, int], ...]
#: Stock events each probe sweep runs through ``MatchIndex.matching_ids``.
EVENTS = 2000


def stock_subscriptions(count: int, seed: int) -> List[Ranges]:
    """The quantised rectangles of ``count`` stock-scenario subscriptions."""
    scenario = stock_market_scenario(num_subscriptions=count, num_events=0, seed=seed)
    schema = scenario.schema
    return [Subscription(schema, constraints).ranges for constraints in scenario.subscriptions]


def best_of(repeat: int, action: Callable[[], object]) -> float:
    """Smallest wall-clock of ``repeat`` calls, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - start)
    return best


def stab_ns(store: FlatSegmentStore, keys: Sequence[int], repeat: int) -> float:
    def sweep() -> None:
        stab = store.stab
        for key in keys:
            for _ in stab(key):
                pass

    return best_of(repeat, sweep) / len(keys) * 1e9


#: An event as a probe gets it: cells, Z key and packed point.
Probe = Tuple[Sequence[int], int, int]


def sweep_s(index: MatchIndex, events: Sequence[Probe]) -> float:
    """Wall-clock of one ``matching_ids`` sweep over ``events``, in seconds."""
    matching_ids = index.matching_ids
    start = time.perf_counter()
    for cells, key, point in events:
        matching_ids(cells, key, point)
    return time.perf_counter() - start


def staged_probe_ns(
    index: MatchIndex,
    spare: Sequence[Ranges],
    events: Sequence[Probe],
    repeat: int,
) -> Tuple[float, List[float]]:
    """A clean probe's cost and what the ``spare`` slots staged add to it, per pair.

    Each repeat times a clean sweep and a sweep with the spares staged, side
    by side (which goes first alternates), and keeps their difference; the
    result is the clean probe's best time and the per-pair differences, both
    in ns per probe.  The staged probe must return every staged match, and
    the spares are removed again afterwards.
    """
    store = index._flat
    store.charge = lambda tests: False  # the instance attribute shadows the method
    staged = {("spare", number): ranges for number, ranges in enumerate(spare)}
    clean: List[float] = []
    added: List[float] = []
    try:
        for turn in range(repeat):
            pair = {}
            for side in ("clean", "staged") if turn % 2 == 0 else ("staged", "clean"):
                if side == "staged":
                    for sub_id, ranges in staged.items():
                        index.add(sub_id, ranges)
                    assert len(store.staged) == len(staged), "the spares must all be staged"
                pair[side] = sweep_s(index, events) / len(events) * 1e9
                if side == "staged":
                    for sub_id in staged:
                        index.remove(sub_id)
            clean.append(pair["clean"])
            added.append(pair["staged"] - pair["clean"])
        if not staged:
            return min(clean), added
        for sub_id, ranges in staged.items():
            index.add(sub_id, ranges)
        staged_matches = 0
        for cells, key, point in events:
            expected = [
                sub_id
                for sub_id, ranges in staged.items()
                if all(lo <= cell <= hi for (lo, hi), cell in zip(ranges, cells))
            ]
            found = [
                sub_id for sub_id in index.matching_ids(cells, key, point) if sub_id in staged
            ]
            assert found == expected, "the probe must return every staged match"
            staged_matches += len(found)
        assert staged_matches, "no stock event matched a staged subscription"
        for sub_id in staged:
            index.remove(sub_id)
    finally:
        del store.charge
    return min(clean), added


def measure(slots: int, seed: int, repeat: int) -> Dict[str, object]:
    scenario = stock_market_scenario(num_subscriptions=0, num_events=EVENTS, seed=seed)
    schema = scenario.schema
    index = MatchIndex(schema)
    index.add_batch(list(enumerate(stock_subscriptions(slots, seed))))
    bits = index.precision_bits
    store = index._flat
    runs = [store.runs_of(index._slot_of[number]) for number in range(slots)]
    spare = stock_subscriptions(FlatSegmentStore.PENDING_SLOTS, seed + 1)
    rng = random.Random(seed)
    top = max(hi for slot_runs in runs for _, hi in slot_runs)
    # Half the stab keys start a stored run (a hit), half fall anywhere.
    keys = [rng.choice(rng.choice(runs))[0] for _ in range(1000)]
    keys += [rng.randrange(top + 1) for _ in range(1000)]
    events = []
    for event in scenario.events:
        cells = schema.quantize_event(event)
        events.append((cells, index.event_key(cells), pack_point(cells, schema.order)))

    total_runs = sum(len(slot_runs) for slot_runs in runs)
    rebuild_s = best_of(repeat, store.rebuild)
    store._sweep_numpy = lambda: None  # the instance attribute shadows the method
    try:
        fallback_s = best_of(repeat, store.rebuild)
    finally:
        del store._sweep_numpy
    store.rebuild()
    clean = stab_ns(store, keys, repeat)

    # As many staged slots as any table may hold without rebuilding, and no
    # more than fit below the table's next grid step: none for a table that
    # sits on a step (its next add re-flattens it).
    pending = min(
        len(spare),
        FlatSegmentStore.PENDING_SLOTS + slots // FlatSegmentStore.PENDING_SHARE,
        index._grow_past - slots,
    )
    rebuilds = store.rebuilds
    probe_clean, added = staged_probe_ns(index, spare[:pending], events, repeat)
    per_pending: object = "-"
    spread: object = "-"
    if pending:
        per_slot = [difference / pending for difference in added]
        per_pending = round(statistics.median(per_slot), 2)
        spread = f"{min(per_slot):.0f} to {max(per_slot):.0f}"
        assert index.precision_bits == bits, "staging must not step the grid"

    # As many tombstones as compaction tolerates: half the flattened slots.
    for number in range(slots // 2):
        index.remove(number)
    store = index._flat
    assert store.rebuilds == rebuilds, "the probe states must not trigger a rebuild"
    tombstoned = stab_ns(store, keys, repeat)
    timings = {
        "rebuild_us": rebuild_s * 1e6,
        "rebuild_fallback_us": fallback_s * 1e6,
        "per_run_us": rebuild_s * 1e6 / total_runs,
        "per_run_fallback_us": fallback_s * 1e6 / total_runs,
        "stab_clean_ns": clean,
        "stab_tombstoned_ns": tombstoned,
        "probe_clean_ns": probe_clean,
    }
    return {
        "slots": slots,
        "bits": bits,
        "runs": total_runs,
        "runs/slot": round(total_runs / slots, 1),
        "segments": store.segment_count(),
        **{name: round(value, 2) for name, value in timings.items()},
        "staged": pending,
        "per_pending_slot_ns": per_pending,
        "pairs_range_ns": spread,
    }


def unit_costs(rows: Sequence[Dict[str, object]]) -> Dict[str, Optional[float]]:
    """``c_test``, ``c_fix`` and ``c_run`` (µs) from the table's rows, and their ratios.

    ``c_fix`` and ``c_run`` are fitted through the rows of at most
    :data:`FIT_SLOTS` slots and need two of them with different run counts;
    ``c_test`` needs one row with staged slots.  What cannot be fitted is
    ``None``, and so is the ratio of a cost that is not positive.
    """
    per_slot = [row["per_pending_slot_ns"] for row in rows if row["staged"]]
    c_test = statistics.median(per_slot) / 1e3 if per_slot else None
    c_fix = c_run = None
    fitted = [row for row in rows if row["slots"] <= FIT_SLOTS]
    runs = [row["runs"] for row in fitted]
    if len(set(runs)) >= 2:
        c_run, c_fix = statistics.linear_regression(runs, [row["rebuild_us"] for row in fitted])

    def ratio(cost: Optional[float]) -> Optional[float]:
        if cost is None or cost <= 0 or not c_test or c_test <= 0:
            return None
        return cost / c_test

    return {
        "c_test_us": c_test,
        "c_fix_us": c_fix,
        "c_run_us": c_run,
        "c_fix/c_test": ratio(c_fix),
        "c_run/c_test": ratio(c_run),
    }


def format_unit_costs(costs: Dict[str, Optional[float]]) -> str:
    constants = {
        "c_fix/c_test": f"FlatSegmentStore.FLATTEN_TESTS = {FlatSegmentStore.FLATTEN_TESTS}",
        "c_run/c_test": f"FlatSegmentStore.RUN_TESTS = {FlatSegmentStore.RUN_TESTS}",
    }
    fit = f"fitted through the rows of at most {FIT_SLOTS} slots"
    beside = {"c_fix_us": fit, "c_run_us": fit}
    for name, constant in constants.items():
        for part in name.split("/"):
            cost = costs[f"{part}_us"]
            if cost is not None and cost <= 0:
                constant = f"no ratio: {part} is not positive; {constant}"
                break
        beside[name] = constant
    lines = ["unit costs of the cost model:"]
    for name, value in costs.items():
        shown = "-" if value is None else f"{value:.3f}"
        note = f"   ({beside[name]})" if name in beside else ""
        lines.append(f"  {name:13s} {shown}{note}")
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slots", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--out", type=pathlib.Path, default=ROOT / "experiments" / "out" / "flat_store_costs.txt")
    args = parser.parse_args(argv)
    rows = [measure(slots, args.seed, args.repeat) for slots in args.slots]
    title = f"flat store costs: stock-scenario runs, seed {args.seed}, best of {args.repeat}"
    table = format_table(rows, title=title, precision=6) + "\n"
    table += "\n" + format_unit_costs(unit_costs(rows))
    print(table, end="")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(table)


if __name__ == "__main__":
    main()
