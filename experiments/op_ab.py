"""Same-process A/B of one operation kind: the working tree's ``repro`` against a committed revision.

Full end-to-end runs on a shared host swing from batch to batch by more than
a sub-10 % change (ROADMAP item 9), so this sizes such a change inside one
interpreter instead.  ``--base REV`` is extracted with ``git archive`` into a
temporary directory as the package ``repro_base`` (every import inside
``repro`` is relative, so the copy imports as itself); the working tree's
``src/repro`` is the other side.  Each side builds its own network on the
named overlay, the way the benchmark's workloads do (``tree7`` and
``chain3`` on the synchronous transport with stock subscriptions, ``grid12``
on the simulated one with sensor subscriptions; approximate covering,
``IndexConfig()``), and both are preloaded with the same subscriptions.

Then every round draws one window of operations as plain data and runs it on
both sides, each turning it into its own package's objects first, untimed:

* ``--ops sub``: 24 subscribes and 24 withdrawals of one of the oldest live
  subscriptions, in a seeded shuffle, each ``subscribe`` / ``unsubscribe``
  followed by ``flush``;
* ``--ops pub``: 300 publishes from random brokers.

Inside a timed window the collector is off (it runs, and is collected,
between windows), and which side runs first alternates from round to round.
One untimed warm-up round comes first.  The script prints the median of the
per-round ratios ``base time / working-tree time`` (above 1: the working
tree is faster) with its quartiles, the µs per operation of each side (median
over rounds) and the round count.  It exits non-zero when the two sides'
``routing_table_entries()`` or ``subscription_messages`` differ after any
round, and on the simulated overlay also when the kernel's executed steps,
the transport's delivered messages or ``len(network.deliveries)`` differ:
the sides must do the same work, on the same kernel schedule, for the ratio
to mean anything.

An experiment, not a test.  From the repository root::

    python3 experiments/op_ab.py --base 360d74b                 # subscribes on tree7, 40 rounds
    python3 experiments/op_ab.py --base 3b3a158 --overlay chain3 --ops pub
    python3 experiments/op_ab.py --base HEAD --rounds 2         # an A/A smoke

Nothing is written inside the repository; the extracted copy is deleted on
exit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import pathlib
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from typing import Dict, Hashable, List, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

#: overlay -> (transport, scenario builder, preloaded subscriptions), as in
#: the benchmark's sub-tree7-sync, pub-chain3-sync and churn-grid12-sim.
OVERLAYS = {
    "tree7": ("sync", "stock_market_scenario", 50),
    "chain3": ("sync", "stock_market_scenario", 80),
    "grid12": ("sim", "sensor_network_scenario", 64),
}
#: Operations of one round: subscribes (and as many withdrawals), or publishes.
SUBSCRIBES = 24
PUBLISHES = 300
#: Scenario pool sizes; the op stream cycles through them.
POOL = 4096
EVENT_POOL = 2048
#: Simulated per-link delays of the sim transport (seconds of simulated time).
SIM_LAN_DELAY = 0.01
SIM_WAN_DELAY = 0.1

#: ("sub", broker, client, sub_id, constraints) | ("unsub", client, sub_id)
#: | ("pub", broker, event_id, values)
Op = Tuple


def extract_base(rev: str, into: pathlib.Path) -> str:
    """Write ``src/repro`` at ``rev`` to ``into/repro_base``; the package name."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/repro"],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar.getmembers():
            if not member.isfile():
                continue
            path = into / "repro_base" / pathlib.PurePosixPath(member.name).relative_to("src/repro")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(tar.extractfile(member).read())
    return "repro_base"


def _overlay(pubsub, workloads, overlay: str):
    """``(edges, nodes, region topology or None)`` of a named overlay."""
    if overlay == "tree7":
        return pubsub.tree_topology(7), None, None
    if overlay == "chain3":
        return pubsub.chain_topology(3), None, None
    topology = workloads.grid_cluster_topology(2, 2, 3)
    return topology.overlay, topology.broker_ids, topology


class Side:
    """One package's network, and the window runner that times it."""

    def __init__(self, package: str, overlay: str, seed: int) -> None:
        pubsub = importlib.import_module(f"{package}.pubsub")
        workloads = importlib.import_module(f"{package}.workloads")
        index = importlib.import_module(f"{package}.index")
        sim = importlib.import_module(f"{package}.sim")
        transport, scenario, _ = OVERLAYS[overlay]
        self.schema = getattr(workloads, scenario)(
            num_subscriptions=0, num_events=0, seed=seed
        ).schema
        self._subscription = pubsub.Subscription
        self._event = pubsub.Event
        edges, nodes, topology = _overlay(pubsub, workloads, overlay)
        carrier = None
        self.simulated = transport == "sim"
        if self.simulated:
            carrier = sim.SimTransport(
                topology.latency_model(lan=SIM_LAN_DELAY, wan=SIM_WAN_DELAY), seed=seed
            )
        self.network = pubsub.BrokerNetwork.from_topology(
            self.schema,
            edges,
            covering="approximate",
            config=index.IndexConfig(),
            transport=carrier,
            seed=seed,
            nodes=nodes,
        )

    def preload(self, items: Dict[Hashable, List[Tuple[Hashable, Hashable, dict]]]) -> None:
        for broker, subscriptions in items.items():
            self.network.subscribe_batch(
                broker,
                [
                    (client, self._subscription(self.schema, constraints, sub_id=sub_id))
                    for client, sub_id, constraints in subscriptions
                ],
            )
        self.network.flush()

    def run(self, ops: Sequence[Op]) -> float:
        """Seconds the window's operations take, with the collector off."""
        network = self.network
        schema = self.schema
        flush = (network.flush, ())
        calls = []
        for op in ops:
            if op[0] == "sub":
                _, broker, client, sub_id, constraints = op
                subscription = self._subscription(schema, constraints, sub_id=sub_id)
                calls += [(network.subscribe, (broker, client, subscription)), flush]
            elif op[0] == "unsub":
                calls += [(network.unsubscribe, op[1:]), flush]
            else:
                _, broker, event_id, values = op
                calls.append((network.publish, (broker, self._event(schema, values, event_id))))
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            for call, args in calls:
                call(*args)
            return time.perf_counter() - start
        finally:
            gc.enable()

    def state(self) -> Dict[str, int]:
        """What both sides must agree on after a round: the same work, the same schedule."""
        network = self.network
        state = {
            "routing entries": network.routing_table_entries(),
            "subscription messages": network.subscription_messages,
        }
        if self.simulated:
            state["kernel steps"] = network.transport.kernel.executed
            state["messages delivered"] = network.transport.stats.messages_delivered
            state["deliveries"] = len(network.deliveries)
        return state


class OpStream:
    """The seeded operations both sides run, as plain data."""

    def __init__(self, overlay: str, seed: int, brokers: List[Hashable]) -> None:
        _, scenario, preload = OVERLAYS[overlay]
        workloads = importlib.import_module("repro.workloads")
        pool = getattr(workloads, scenario)(
            num_subscriptions=POOL, num_events=EVENT_POOL, seed=seed
        )
        self._constraints = pool.subscriptions
        self._events = pool.events
        self._rng = random.Random(seed)
        self._brokers = brokers
        self._clients = max(1, -(-preload // len(brokers)))
        self._oldest = max(4, preload // 8)
        self._live: List[Tuple[Hashable, Hashable]] = []
        self._next_sub = self._next_event = 0
        self.preload: Dict[Hashable, List[Tuple[Hashable, Hashable, dict]]] = {}
        for _ in range(preload):
            _, broker, client, sub_id, constraints = self._subscribe()
            self.preload.setdefault(broker, []).append((client, sub_id, constraints))

    def _subscribe(self) -> Op:
        rng = self._rng
        broker = rng.choice(self._brokers)
        client = f"{broker}/c{rng.randrange(self._clients)}"
        sub_id = f"s{self._next_sub}"
        constraints = self._constraints[self._next_sub % len(self._constraints)]
        self._next_sub += 1
        self._live.append((client, sub_id))
        return ("sub", broker, client, sub_id, constraints)

    def _unsubscribe(self) -> Op:
        client, sub_id = self._live.pop(self._rng.randrange(min(self._oldest, len(self._live))))
        return ("unsub", client, sub_id)

    def _publish(self) -> Op:
        values = self._events[self._next_event % len(self._events)]
        self._next_event += 1
        return ("pub", self._rng.choice(self._brokers), f"e{self._next_event}", values)

    def window(self, ops: str) -> List[Op]:
        if ops == "pub":
            return [self._publish() for _ in range(PUBLISHES)]
        kinds = ["sub"] * SUBSCRIBES + ["unsub"] * SUBSCRIBES
        self._rng.shuffle(kinds)
        return [self._subscribe() if kind == "sub" else self._unsubscribe() for kind in kinds]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the revision the working tree is compared with")
    parser.add_argument("--overlay", choices=sorted(OVERLAYS), default="tree7")
    parser.add_argument("--ops", choices=("sub", "pub"), default="sub")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory(prefix="op_ab-") as scratch:
        sys.path.insert(0, scratch)
        base = extract_base(args.base, pathlib.Path(scratch))
        sides = {"base": Side(base, args.overlay, args.seed), "work": Side("repro", args.overlay, args.seed)}
        brokers = sorted(sides["work"].network.brokers, key=str)
        stream = OpStream(args.overlay, args.seed, brokers)
        for side in sides.values():
            side.preload(stream.preload)
        times: Dict[str, List[float]] = {"base": [], "work": []}
        per_window = 0
        for turn in range(args.rounds + 1):  # the first round warms up, untimed
            ops = stream.window(args.ops)
            per_window = len(ops)
            order = ("base", "work") if turn % 2 == 0 else ("work", "base")
            took = {name: sides[name].run(ops) for name in order}
            states = {name: side.state() for name, side in sides.items()}
            if states["base"] != states["work"]:
                print(
                    f"op_ab: the sides diverged in round {turn}: "
                    f"base {states['base']}, work {states['work']}",
                    file=sys.stderr,
                )
                return 1
            if turn:
                for name in times:
                    times[name].append(took[name])
    ratios = [b / w for b, w in zip(times["base"], times["work"])]
    if len(ratios) >= 2:
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    else:
        q1 = median = q3 = ratios[0]
    per_op = {name: statistics.median(spent) / per_window * 1e6 for name, spent in times.items()}
    print(f"op_ab: {args.ops} on {args.overlay}, seed {args.seed}, base {args.base} vs working tree")
    print(f"  rounds                {len(ratios)} ({per_window} ops each)")
    print(f"  base / work time      {median:.3f}  (quartiles {q1:.3f} .. {q3:.3f})")
    print(f"  us per op, base       {per_op['base']:.1f}")
    print(f"  us per op, work       {per_op['work']:.1f}")
    for name, value in states["work"].items():
        print(f"  {name:22s}{value} on both sides")
    return 0


if __name__ == "__main__":
    sys.exit(main())
