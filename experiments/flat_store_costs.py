"""What the flat segment store's operations cost, by table size.

The numbers the staging thresholds of
:class:`repro.index.sfc_array.FlatSegmentStore` are sized from (README,
"Event-matching fast path"): a merge-rebuild with and without numpy, the same
per stored run, and a stab of a clean table, of one carrying as many
tombstones as compaction allows, and per slot waiting in the pending buffer.
Slots hold the key runs the product configuration stores for stock-scenario
subscriptions (at most 64 each).

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
from repro.sfc import vectorized  # noqa: E402
from repro.workloads.scenarios import stock_market_scenario  # noqa: E402

SIZES = (4, 8, 20, 32, 128, 1024, 4096)
Runs = Tuple[Tuple[int, int], ...]


def stock_runs(slots: int, seed: int) -> List[Runs]:
    """The run tuple the product match index stores for each of ``slots`` stock subscriptions."""
    scenario = stock_market_scenario(num_subscriptions=slots, num_events=0, seed=seed)
    index = MatchIndex(scenario.schema)
    index.add_batch(
        [
            (number, Subscription(scenario.schema, constraints).ranges)
            for number, constraints in enumerate(scenario.subscriptions)
        ]
    )
    return [index._flat.runs_of(index._slot_of[number]) for number in range(slots)]


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


def measure(slots: int, seed: int, repeat: int) -> Dict[str, float]:
    runs = stock_runs(slots, seed)
    spare = stock_runs(FlatSegmentStore.PENDING_SLOTS, seed + 1)
    rng = random.Random(seed)
    top = max(hi for slot_runs in runs for _, hi in slot_runs)
    # Half the probes start a stored run (a hit), half fall anywhere.
    keys = [rng.choice(rng.choice(runs))[0] for _ in range(1000)]
    keys += [rng.randrange(top + 1) for _ in range(1000)]

    store = FlatSegmentStore()
    store.add_bulk(enumerate(runs))
    total_runs = sum(len(slot_runs) for slot_runs in runs)
    rebuild_s = best_of(repeat, store.rebuild)
    saved, vectorized.np = vectorized.np, None
    try:
        fallback_s = best_of(repeat, store.rebuild)
    finally:
        vectorized.np = saved
    store.rebuild()
    clean = stab_ns(store, keys, repeat)

    # As many pending slots as any table may hold without rebuilding.
    pending = min(
        len(spare), FlatSegmentStore.PENDING_SLOTS + slots // FlatSegmentStore.PENDING_SHARE
    )
    rebuilds = store.rebuilds
    for number in range(pending):
        store.add(slots + number, spare[number])
    with_pending = stab_ns(store, keys, repeat)
    for number in range(pending):
        store.remove(slots + number)

    # As many tombstones as compaction tolerates: half the flattened slots.
    for slot in range(slots // 2):
        store.remove(slot)
    assert store.rebuilds == rebuilds, "the probe states must not trigger a rebuild"
    tombstoned = stab_ns(store, keys, repeat)
    timings = {
        "rebuild_us": rebuild_s * 1e6,
        "rebuild_fallback_us": fallback_s * 1e6,
        "per_run_us": rebuild_s * 1e6 / total_runs,
        "per_run_fallback_us": fallback_s * 1e6 / total_runs,
        "stab_clean_ns": clean,
        "stab_tombstoned_ns": tombstoned,
        "per_pending_slot_ns": (with_pending - clean) / pending,
    }
    return {
        "slots": slots,
        "runs": total_runs,
        "segments": store.segment_count(),
        **{name: round(value, 2) for name, value in timings.items()},
    }


def main(argv: Sequence[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slots", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--out", type=pathlib.Path, default=ROOT / "experiments" / "out" / "flat_store_costs.txt")
    args = parser.parse_args(argv)
    rows = [measure(slots, args.seed, args.repeat) for slots in args.slots]
    title = (
        f"flat store costs: stock-scenario runs, seed {args.seed}, best of {args.repeat}, "
        f"numpy {'on' if vectorized.np is not None else 'off'}"
    )
    table = format_table(rows, title=title, precision=6) + "\n"
    print(table, end="")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(table)


if __name__ == "__main__":
    main()
