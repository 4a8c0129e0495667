"""What the flat segment store's operations cost, by table size.

The numbers the staging thresholds of
:class:`repro.index.sfc_array.FlatSegmentStore` are sized from (README,
"Event-matching fast path"): a merge-rebuild on the numpy sweep and on the
Python one (what keys wider than 64 bits take), the same per stored run, a
stab of a clean table and of one carrying as many tombstones as compaction
allows, and what each slot waiting in the pending buffer adds to a probe.
A stab does not see staged slots (the match index tests each of them by its
rectangle), so that last column times ``MatchIndex.matching_ids`` on stock
events with and without the staged slots, and checks that the probe with
them returns every staged subscription an event matches.
Slots hold the key runs the product configuration stores for stock-scenario
subscriptions (at most 64 each) on the grid an index of that many
subscriptions decomposes on: ``bits`` per dimension, which grows with the
table (``MatchIndex``), hence the ``runs/slot`` column.  The staged
subscriptions stop short of the table's next grid step, which would
re-derive and re-flatten every slot.

An experiment, not a test: timings are best-of-``--repeat`` on whatever host
runs it.  From the repository root::

    python3 experiments/flat_store_costs.py                  # 4 ... 4,096 slots
    python3 experiments/flat_store_costs.py --slots 4 --repeat 2

The table is printed and written to ``experiments/out/flat_store_costs.txt``
(untracked) unless ``--out`` names another file.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.reporting import format_table  # noqa: E402
from repro.index.sfc_array import FlatSegmentStore  # noqa: E402
from repro.pubsub.match_index import MatchIndex  # noqa: E402
from repro.pubsub.subscription import Subscription  # noqa: E402
from repro.workloads.scenarios import stock_market_scenario  # noqa: E402

SIZES = (4, 8, 20, 32, 128, 1024, 4096)
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


def probe_ns(index: MatchIndex, events: Sequence[Tuple[Sequence[int], int]], repeat: int) -> float:
    def sweep() -> None:
        matching_ids = index.matching_ids
        for cells, key in events:
            matching_ids(cells, key)

    return best_of(repeat, sweep) / len(events) * 1e9


def staged_probe_ns(
    index: MatchIndex,
    spare: Sequence[Ranges],
    events: Sequence[Tuple[Sequence[int], int]],
    repeat: int,
) -> float:
    """A probe's cost with ``spare`` staged, checking it returns their matches.

    The spares are removed again afterwards.
    """
    staged = {("spare", number): ranges for number, ranges in enumerate(spare)}
    for sub_id, ranges in staged.items():
        index.add(sub_id, ranges)
    assert len(index._flat.staged) == len(staged), "the spare subscriptions must all be staged"
    probe = probe_ns(index, events, repeat)
    staged_matches = 0
    for cells, key in events:
        expected = [
            sub_id
            for sub_id, ranges in staged.items()
            if all(lo <= cell <= hi for (lo, hi), cell in zip(ranges, cells))
        ]
        found = [sub_id for sub_id in index.matching_ids(cells, key) if sub_id in staged]
        assert found == expected, "the probe must return every staged match"
        staged_matches += len(found)
    assert staged_matches, "no stock event matched a staged subscription"
    for sub_id in staged:
        index.remove(sub_id)
    return probe


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
        events.append((cells, index.event_key(cells)))

    total_runs = sum(len(slot_runs) for slot_runs in runs)
    rebuild_s = best_of(repeat, store.rebuild)
    store._sweep_numpy = lambda: None  # the instance attribute shadows the method
    try:
        fallback_s = best_of(repeat, store.rebuild)
    finally:
        del store._sweep_numpy
    store.rebuild()
    clean = stab_ns(store, keys, repeat)
    probe_clean = probe_ns(index, events, repeat)

    # As many staged slots as any table may hold without rebuilding, and no
    # more than fit below the table's next grid step: none for a table that
    # sits on a step (its next add re-flattens it).
    pending = min(
        len(spare),
        FlatSegmentStore.PENDING_SLOTS + slots // FlatSegmentStore.PENDING_SHARE,
        index._grow_past - slots,
    )
    rebuilds = store.rebuilds
    per_pending: object = "-"
    if pending:
        probe_staged = staged_probe_ns(index, spare[:pending], events, repeat)
        per_pending = round((probe_staged - probe_clean) / pending, 2)
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
    }


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
    print(table, end="")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(table)


if __name__ == "__main__":
    main()
