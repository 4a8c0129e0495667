"""E-SUB-CHURN: subscription churn through the batch and the per-call APIs.

The covering optimisation's cost lives on the subscription path: every
arrival runs a covering check per link, and every withdrawal of a covering
subscription must promote the subscriptions it had been suppressing.  Two
row kinds:

* ``phase="churn"``: per size, the same wide / narrow workload is subscribed
  and then partly withdrawn (a slice of broad covers and a slice of narrow
  subscriptions, so the promotion path runs hard) on a broker tree, once
  through per-subscription ``subscribe`` / ``unsubscribe`` calls and once
  through ``subscribe_batch`` / ``unsubscribe_batch``, both arms timed.  The
  batch APIs are loops over the per-call path, so the two runs must leave
  byte-identical routing state and equal broker counters, or it raises.
* ``phase="audit"``: after the batch churn settles on every (topology ×
  transport) pair, probe events must reach exactly the surviving matching
  subscribers (covering may only ever suppress more, never lose).

``subscription_churn_pr12_rescan_unshared.txt`` beside the table is a frozen
measurement against a full-rescan arm that no longer exists; nothing
rewrites it.  From the repository root::

    python3 experiments/subscription_churn.py           # 10k and 50k subscriptions, ~1 min
    python3 experiments/subscription_churn.py --smoke   # tiny sizes, writes nothing

At full size it rewrites ``subscription_churn.txt`` (and its
``BENCH_*.json``) in ``benchmarks/results/``, then asserts the claims.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time
from typing import Dict, List, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.reporting import ResultTable  # noqa: E402
from repro.obs.exposition import write_bench_json  # noqa: E402
from repro.pubsub.network import (  # noqa: E402
    BrokerNetwork,
    chain_topology,
    star_topology,
    tree_topology,
)
from repro.pubsub.subscription import Event, Subscription  # noqa: E402
from repro.sim.latency import FixedLatency  # noqa: E402
from repro.sim.transport import SimTransport  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    EventWorkload,
    mixed_width_workload,
    spec_subscription,
    xy_schema,
)

RESULTS = ROOT / "benchmarks" / "results"
#: ``(churn sizes, brokers, cover withdrawals, narrow withdrawals, audit
#: size, audit events)``; the audit size trims the six-way matrix, the
#: churn comparison runs at the full sizes.
FULL = ((10_000, 50_000), 15, 40, 200, 5_000, 25)
SMOKE = ((200, 400), 7, 20, 30, 200, 10)
ORDER = 8
SEED = 11
TOPOLOGIES = {"tree": tree_topology, "chain": chain_topology, "star": star_topology}
TRANSPORTS = ("sync", "sim")


def churn(
    sizes: Sequence[int],
    brokers: int,
    cover_withdrawals: int,
    narrow_withdrawals: int,
    audit_size: int,
    audit_events: int,
) -> ResultTable:
    """The churn rows, one per size, then the audit rows, one per pair."""
    table = ResultTable("E-SUB-CHURN: subscription churn, batch vs sequential calls")
    schema = xy_schema(ORDER)

    def build_workload(size: int):
        specs = mixed_width_workload(
            attributes=2,
            order=ORDER,
            count=size,
            narrow_fraction=0.96,
            narrow_width=0.04,
            wide_width=0.4,
            seed=SEED,
            prefix=f"churn-{size}",
        )
        subscriptions = [spec_subscription(schema, spec) for spec in specs]
        rng = random.Random(SEED + 1)
        placement = {sub.sub_id: rng.randrange(brokers) for sub in subscriptions}
        # Per-broker batches in arrival order; the sequential arm replays the
        # same flattened order, so covering decisions see the same arrivals.
        batches: Dict[int, List[Tuple[str, Subscription]]] = {}
        for sub in subscriptions:
            batches.setdefault(placement[sub.sub_id], []).append((f"client-{sub.sub_id}", sub))
        wides = [s for s in subscriptions if "-wide-" in str(s.sub_id)]
        narrows = [s for s in subscriptions if "-narrow-" in str(s.sub_id)]
        withdrawals = wides[:cover_withdrawals] + narrows[:narrow_withdrawals]
        # Withdrawals grouped by home broker (the batch's processing order),
        # so the sequential replay withdraws in the same per-link order.
        kill_groups: Dict[int, List[Tuple[str, str]]] = {}
        for sub in withdrawals:
            kill_groups.setdefault(placement[sub.sub_id], []).append(
                (f"client-{sub.sub_id}", sub.sub_id)
            )
        kills = [pair for group in kill_groups.values() for pair in group]
        return batches, kills

    def make_network(topology: str, transport: str) -> BrokerNetwork:
        return BrokerNetwork.from_topology(
            schema,
            TOPOLOGIES[topology](brokers),
            covering="approximate",
            transport=SimTransport(FixedLatency(delay=0.01), seed=SEED)
            if transport == "sim"
            else None,
        )

    def run_batch(network: BrokerNetwork, batches, kills):
        start = time.perf_counter()
        for broker_id, items in batches.items():
            network.subscribe_batch(broker_id, items)
        subscribe_seconds = time.perf_counter() - start
        start = time.perf_counter()
        network.unsubscribe_batch(kills)
        return subscribe_seconds, time.perf_counter() - start

    def run_sequential(network: BrokerNetwork, batches, kills):
        start = time.perf_counter()
        for broker_id, items in batches.items():
            for client_id, subscription in items:
                network.subscribe(broker_id, client_id, subscription)
        network.flush()
        subscribe_seconds = time.perf_counter() - start
        start = time.perf_counter()
        for client_id, sub_id in kills:
            network.unsubscribe(client_id, sub_id)
        network.flush()
        return subscribe_seconds, time.perf_counter() - start

    for size in sizes:
        batches, kills = build_workload(size)
        sequential = make_network("tree", "sync")
        sequential_subscribe, sequential_withdraw = run_sequential(sequential, batches, kills)
        batch = make_network("tree", "sync")
        batch_subscribe, batch_withdraw = run_batch(batch, batches, kills)
        if sequential.routing_state() != batch.routing_state() or any(
            sequential.brokers[b].stats != batch.brokers[b].stats for b in batch.brokers
        ):
            raise AssertionError(
                f"batch subscribe/withdraw diverged from sequential calls at size {size}"
            )
        table.add(
            phase="churn",
            subscriptions=size,
            topology="tree",
            transport="sync",
            withdrawals=len(kills),
            sequential_subscribe_s=round(sequential_subscribe, 3),
            sequential_withdraw_s=round(sequential_withdraw, 3),
            batch_subscribe_s=round(batch_subscribe, 3),
            batch_withdraw_s=round(batch_withdraw, 3),
            promotions=sum(b.stats.promotions for b in batch.brokers.values()),
            run_cache_hits=batch.profile_cache.hits,
            run_cache_misses=batch.profile_cache.misses,
        )

    batches, kills = build_workload(audit_size)
    events = [
        Event(
            schema,
            {name: schema.dequantize_value(name, cell) for name, cell in zip(schema.names, cells)},
            event_id=f"audit-{i}",
        )
        for i, cells in enumerate(
            EventWorkload(attributes=2, attribute_order=ORDER, seed=SEED + 3).generate(audit_events)
        )
    ]
    rng = random.Random(SEED + 4)
    for topology in TOPOLOGIES:
        for transport in TRANSPORTS:
            network = make_network(topology, transport)
            run_batch(network, batches, kills)
            missed_total = extra_total = 0
            for event in events:
                missed, extra = network.publish_and_audit(rng.randrange(brokers), event)
                missed_total += len(missed)
                extra_total += len(extra)
            table.add(
                phase="audit",
                subscriptions=audit_size,
                topology=topology,
                transport=transport,
                withdrawals=len(kills),
                missed=missed_total,
                extra=extra_total,
                promotions=sum(b.stats.promotions for b in network.brokers.values()),
            )
    return table


def check(table: ResultTable) -> None:
    """Safety after batch churn, withdrawal promotion included: no audited
    event misses a surviving subscriber on any topology or transport."""
    audit = [row for row in table.rows if row["phase"] == "audit"]
    assert {(row["topology"], row["transport"]) for row in audit} == {
        (topology, transport) for topology in TOPOLOGIES for transport in TRANSPORTS
    }
    assert all(row["missed"] == 0 for row in audit), audit


def main(argv: Sequence[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, nothing written")
    smoke = parser.parse_args(argv).smoke
    table = churn(*(SMOKE if smoke else FULL))
    print(table.to_text())
    if not smoke:
        (RESULTS / "subscription_churn.txt").write_text(table.to_text() + "\n")
        write_bench_json(RESULTS / "BENCH_subscription_churn.json", table.rows)
    check(table)


if __name__ == "__main__":
    main()
