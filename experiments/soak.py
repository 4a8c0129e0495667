"""Does a long run hold bounded memory?  An in-process soak of the publish path.

A 3-broker synchronous chain on the product configuration (approximate
covering, ``IndexConfig()``) carries the stock scenario in
rounds shaped like the ``pub-chain3-sync`` benchmark workload: 80 preloaded
subscriptions, then per round 12 subscribes, 12 withdrawals of the oldest
live subscriptions and 1,200 publishes, clients drawn from a fixed pool.
Every 10th publish is audited against the ground truth
(``BrokerNetwork.publish_and_audit``); every audit must be clean.

``tracemalloc`` traces the whole run.  A warm-up runs until every bounded log
the publish path feeds — the network's delivery log and the transport's
latency and hop windows — holds its full ``RETENTION`` records.  The measured
phase after it is cut into ten deciles of deliveries, and the traced heap at
the end of the last decile must lie within ``MARGIN`` of the heap at the end
of the first.  An experiment, not a test: from the repository root::

    python3 experiments/soak.py                      # 2 x 10^5 measured deliveries
    python3 experiments/soak.py --deliveries 20000   # what ci.sh's smoke stage runs

The decile table is printed and written to ``experiments/out/soak.txt``
(untracked) unless ``--out`` names another file.  Exits non-zero when an
audit misses or adds a recipient, a log outgrows ``RETENTION`` or the heap
grows beyond the margin.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time
import tracemalloc
from typing import Dict, List, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.reporting import format_table  # noqa: E402
from repro.index.config import IndexConfig  # noqa: E402
from repro.pubsub import BrokerNetwork, Event, Subscription, chain_topology  # noqa: E402
from repro.sim.transport import RETENTION  # noqa: E402
from repro.workloads.scenarios import stock_market_scenario  # noqa: E402

BROKERS = 3
PRELOAD = 80
ROUND = (12, 12, 1200)  # subscribes, withdrawals, publishes
CLIENTS_PER_BROKER = 27
#: Distinct subscription rectangles, reused in turn.  The warm-up cycles
#: through them, so the profile cache is full before anything is measured.
POOL = 200
AUDIT_EVERY = 10
#: Largest allowed growth of the traced heap from the first measured decile
#: to the last, as a share of the first.
MARGIN = 0.02


class Soak:
    """The network, its seeded op source and the running tallies."""

    def __init__(self, seed: int) -> None:
        scenario = stock_market_scenario(num_subscriptions=POOL, num_events=500, seed=seed)
        self.schema = scenario.schema
        self._constraints = scenario.subscriptions
        self._events = scenario.events
        self._rng = random.Random(seed)
        self.network = BrokerNetwork.from_topology(
            self.schema,
            chain_topology(BROKERS),
            covering="approximate",
            config=IndexConfig(),
            seed=seed,
        )
        self.live: List[Tuple[str, str]] = []  # (client, sub id), oldest first
        self._next_sub = 0
        self._next_event = 0
        self._round: List[str] = []
        self.publishes = 0
        self.audited = 0
        self.audit_failures: List[str] = []
        for _ in range(PRELOAD):
            self._subscribe()

    def _subscribe(self) -> None:
        broker = self._rng.randrange(BROKERS)
        client = f"{broker}/c{self._rng.randrange(CLIENTS_PER_BROKER)}"
        sub_id = f"s{self._next_sub}"
        constraints = self._constraints[self._next_sub % len(self._constraints)]
        self._next_sub += 1
        subscription = Subscription(self.schema, constraints, sub_id=sub_id)
        self.network.subscribe(broker, client, subscription)
        self.live.append((client, sub_id))

    def _withdraw(self) -> None:
        client, sub_id = self.live.pop(0)
        if not self.network.unsubscribe(client, sub_id):
            raise AssertionError(f"withdrawing live {sub_id} found nothing")

    def _publish(self) -> None:
        values = self._events[self._next_event % len(self._events)]
        event = Event(self.schema, values, event_id=f"e{self._next_event}")
        self._next_event += 1
        broker = self._rng.randrange(BROKERS)
        self.publishes += 1
        if self.publishes % AUDIT_EVERY:
            self.network.publish(broker, event)
            return
        self.audited += 1
        missed, extra = self.network.publish_and_audit(broker, event)
        if missed or extra:
            self.audit_failures.append(
                f"{event.event_id} at {broker}: missed {sorted(missed)}, extra {sorted(extra)}"
            )

    def step(self) -> None:
        """Run the next op of the current round (a seeded shuffle of ``ROUND``)."""
        if not self._round:
            subscribes, withdrawals, publishes = ROUND
            self._round = ["sub"] * subscribes + ["unsub"] * withdrawals + ["pub"] * publishes
            self._rng.shuffle(self._round)
        op = self._round.pop()
        if op == "pub":
            self._publish()
        elif op == "sub":
            self._subscribe()
        else:
            self._withdraw()

    def run_until(self, deliveries: int) -> None:
        while len(self.network.deliveries) < deliveries:
            self.step()

    def retained(self) -> Dict[str, int]:
        """How much each bounded log holds now."""
        stats = self.network.transport.stats
        return {
            "log_retained": sum(1 for _ in self.network.deliveries),
            "latency_window": len(stats.delivery_latencies),
            "hop_window": min(len(stats.hop_counts), len(stats.hop_latencies)),
        }


def soak(deliveries: int, seed: int) -> Tuple[List[Dict[str, object]], List[str]]:
    """Run warm-up and ten measured deciles; return the table rows and the failures."""
    tracemalloc.start()
    started = time.perf_counter()
    run = Soak(seed)
    stats = run.network.transport.stats
    # Warm-up: until the slowest-filling window the publish path feeds (the
    # hop windows, one sample per event message) is full.
    while min(len(stats.hop_counts), len(stats.hop_latencies)) < RETENTION:
        run.step()
    rows: List[Dict[str, object]] = []
    start = len(run.network.deliveries)

    def row(label: str) -> Dict[str, object]:
        current, peak = tracemalloc.get_traced_memory()
        return {
            "phase": label,
            "deliveries": len(run.network.deliveries),
            "publishes": run.publishes,
            "audited": run.audited,
            "live_subs": len(run.live),
            **run.retained(),
            "heap_mb": round(current / 2**20, 3),
            "peak_mb": round(peak / 2**20, 3),
            "seconds": round(time.perf_counter() - started, 2),
        }

    rows.append(row("warm-up"))
    for decile in range(1, 11):
        run.run_until(start + deliveries * decile // 10)
        rows.append(row(f"decile {decile}"))
    tracemalloc.stop()

    failures = list(run.audit_failures)
    for name in ("log_retained", "latency_window", "hop_window"):
        if any(r[name] > RETENTION for r in rows):
            failures.append(f"{name} outgrew RETENTION ({RETENTION})")
    first, last = rows[1]["heap_mb"], rows[-1]["heap_mb"]
    if last > first * (1 + MARGIN):
        failures.append(
            f"traced heap grew {first} -> {last} MB from the first measured decile to the last "
            f"(allowed: {MARGIN:.0%})"
        )
    return rows, failures


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--deliveries", type=int, default=200_000, help="deliveries measured after the warm-up"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--out", type=pathlib.Path, default=ROOT / "experiments" / "out" / "soak.txt"
    )
    args = parser.parse_args(argv)
    rows, failures = soak(args.deliveries, args.seed)
    title = (
        f"soak: {BROKERS}-broker sync chain, product config, stock scenario, seed {args.seed}; "
        f"RETENTION {RETENTION}, heap margin {MARGIN:.0%}, "
        f"every {AUDIT_EVERY}th publish audited"
    )
    table = format_table(rows, title=title) + "\n"
    verdict = "".join(f"  {failure}\n" for failure in failures)
    verdict = f"soak: FAILED\n{verdict}" if failures else "soak: ok\n"
    print(table + verdict, end="")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(table + verdict)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
