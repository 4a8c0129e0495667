"""E-MATCH-SCALE: million-subscription matching on one match index.

The scalability claim of the paper's Section 1: SFC-keyed matching sustains
very large populations because the index is points in key order.  On one
:class:`~repro.pubsub.match_index.MatchIndex` (order 10, d = 2, a 4-bit grid)
the parity phase checks delivery sets against a brute-force rectangle scan
(a disagreement raises); then, per population, a bulk ``add_batch`` build
and publish throughput, probing event by event as a broker does (the events
keyed once, ``any_match`` over all, ``matching_ids`` over the first few),
with segments, flattened member entries, rebuilds and peak RSS.  From the
repository root::

    python3 experiments/match_scale.py           # 10^5 and 10^6: ~25 s, ~1.2 GB peak RSS
    python3 experiments/match_scale.py --smoke   # 2,000 subscriptions, writes nothing

At full size it rewrites ``match_scale.txt`` and ``BENCH_match_scale.json`` in
``benchmarks/results/``, then asserts the claims, among them the seeded
populations' recorded match counts.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import resource
import sys
import time
from typing import Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.reporting import ResultTable  # noqa: E402
from repro.index.config import IndexConfig  # noqa: E402
from repro.obs.exposition import write_bench_json  # noqa: E402
from repro.pubsub.match_index import MatchIndex  # noqa: E402
from repro.pubsub.schema import Attribute, AttributeSchema  # noqa: E402

RESULTS = ROOT / "benchmarks" / "results"
ORDER = 10
#: A 4-bit grid, not the 6 bits derived at d = 2: the recorded tables'
#: segment counts and throughputs are taken on it.
PRECISION_BITS = 4
MAX_WIDTH = 24
SEED = 31
#: ``(populations, events, delivery events, parity subscriptions, parity events)``.
FULL = ((100_000, 1_000_000), 20_000, 200, 400, 300)
SMOKE = ((2_000,), 500, 50, 120, 80)
#: The seeded populations' match counts: a change to the store or the probe
#: must not move them.
DELIVERED_MATCHES = {100_000: 2_881, 1_000_000: 29_069}


def subscriptions(count: int, seed: int):
    """Deterministic ``(sub_id, ranges)`` pairs: plain tuples, since at a
    million entries Subscription objects would dominate the build measured."""
    rng = random.Random(seed)
    side = 1 << ORDER

    def span():
        lo = rng.randrange(side)
        return lo, min(side - 1, lo + rng.randrange(MAX_WIDTH))

    return [(f"s{i}", (span(), span())) for i in range(count)]


def match_scale(
    populations: Sequence[int],
    num_events: int,
    num_delivery_events: int,
    parity_subscriptions: int,
    parity_events: int,
) -> ResultTable:
    """The parity row, then one scale row per population."""
    table = ResultTable("E-MATCH-SCALE: million-subscription matching on one match index")
    schema = AttributeSchema([Attribute(a, 0.0, 1000.0) for a in "xy"], order=ORDER)
    side = 1 << ORDER
    config = IndexConfig(precision_bits=PRECISION_BITS)

    # ---------------------------------------------------------------- parity
    parity_items = subscriptions(parity_subscriptions, SEED + 1)
    rng = random.Random(SEED + 2)
    parity_cells = [(rng.randrange(side), rng.randrange(side)) for _ in range(parity_events)]
    oracle = [
        sorted(
            sid
            for sid, rect in parity_items
            if all(lo <= c <= hi for (lo, hi), c in zip(rect, cells))
        )
        for cells in parity_cells
    ]
    index = MatchIndex(schema, config=config)
    index.add_batch(parity_items)
    got = [sorted(index.matching_ids(cells)) for cells in parity_cells]
    assert got == oracle, "the match index disagrees with the rectangle oracle"
    table.add(
        phase="parity", curve="zorder", subscriptions=parity_subscriptions, events=parity_events
    )

    # ----------------------------------------------------------------- scale
    for population in populations:
        items = subscriptions(population, SEED)
        event_rng = random.Random(SEED + 3)
        events = [(event_rng.randrange(side), event_rng.randrange(side)) for _ in range(num_events)]
        index = MatchIndex(schema, config=config)
        start = time.perf_counter()
        index.add_batch(items)
        build_seconds = time.perf_counter() - start

        start = time.perf_counter()
        keys = index.curve.keys(events)
        any_results = [index.any_match(cells, key) for cells, key in zip(events, keys)]
        any_seconds = time.perf_counter() - start

        start = time.perf_counter()
        deliveries = [
            index.matching_ids(cells, key)
            for cells, key in zip(events[:num_delivery_events], keys)
        ]
        delivery_seconds = time.perf_counter() - start

        table.add(
            phase="scale",
            curve="zorder",
            subscriptions=population,
            build_seconds=round(build_seconds, 3),
            inserts_per_second=round(population / build_seconds, 1),
            any_match_events_per_second=round(num_events / any_seconds, 1),
            matching_hit_rate=round(sum(any_results) / num_events, 4),
            delivery_events_per_second=round(num_delivery_events / delivery_seconds, 1),
            delivered_matches=sum(len(ids) for ids in deliveries),
            segments=index.segment_count(),
            member_entries=index._flat.member_entries,
            rebuilds=index._flat.rebuilds,
            peak_rss_mb=round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        )
    return table


def check(table: ResultTable, populations: Sequence[int]) -> None:
    """Every population completed a bulk build and answered publishes, with a
    seeded population's recorded match count."""
    scale = {row["subscriptions"]: row for row in table.rows if row["phase"] == "scale"}
    for population in populations:
        row = scale[population]
        assert row["segments"] > 0 and row["delivery_events_per_second"] > 0
        delivered = row["delivered_matches"]
        assert delivered > 0 and delivered == DELIVERED_MATCHES.get(population, delivered)


def main(argv: Sequence[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, nothing written")
    smoke = parser.parse_args(argv).smoke
    sizes = SMOKE if smoke else FULL
    table = match_scale(*sizes)
    print(table.to_text())
    if not smoke:
        (RESULTS / "match_scale.txt").write_text(table.to_text() + "\n")
        write_bench_json(RESULTS / "BENCH_match_scale.json", table.rows)
    check(table, sizes[0])


if __name__ == "__main__":
    main()
