"""A broker loads only what it runs.

numpy is imported where an array is first built (a flat store's sweep, a
batch of Z keys), networkx nowhere in the product.  In a fresh interpreter
the product packages import, and a network routes subscribes and publishes
while every table scans, without either module loaded; the first table past
``InterfaceTable.SCAN_LIMIT`` builds its match index, which imports numpy,
and answers as the scan does.  No module of the paper's layer
(``PAPER_MODULES``) loads on the way, the CLI's entry point included.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import repro
from test_public_surface import PAPER_MODULES

SRC = pathlib.Path(repro.__file__).parent.parent

SCRIPT = r"""
import itertools
import random
import sys

import repro, repro.pubsub, repro.sim, repro.net, repro.workloads, repro.obs, repro.index
import repro.analysis.cli
from repro.pubsub import (
    LOCAL_INTERFACE, Attribute, AttributeSchema, BrokerNetwork, Event, InterfaceTable,
    Subscription, tree_topology,
)

HEAVY = ("numpy", "networkx")
PAPER = sys.argv[1:]
rng = random.Random(5)
schema = AttributeSchema([Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=8)
network = BrokerNetwork.from_topology(schema, tree_topology(7), seed=1)
ids = itertools.count()


def subscribe(broker):
    i = next(ids)
    lo_x, lo_y = rng.uniform(0, 90), rng.uniform(0, 90)
    box = {"x": (lo_x, lo_x + rng.uniform(1, 30)), "y": (lo_y, lo_y + rng.uniform(1, 30))}
    network.subscribe(broker, f"c{i}", Subscription(schema, box, sub_id=f"s{i}"))


def events(count):
    return [
        Event(schema, {"x": rng.uniform(0, 100), "y": rng.uniform(0, 100)}, event_id=f"e{rng.random()}")
        for _ in range(count)
    ]


loaded = sorted(name for name in HEAVY + tuple(PAPER) if name in sys.modules)
assert loaded == [], f"importing the product loaded {loaded}"
for i in range(40):
    subscribe(i % 7)
for i, event in enumerate(events(30)):
    assert network.publish_and_audit(i % 7, event) == (set(), set())
batch = events(10)
assert network.publish_batch(3, batch) == [network.expected_recipients(e) for e in batch]
network.unsubscribe("c0", "s0")
tables = [
    table
    for broker in network.brokers.values()
    for table in broker.routing_table.interface_tables().values()
]
assert all(len(table) <= InterfaceTable.SCAN_LIMIT for table in tables)
assert all(table.match_index is None for table in tables)
loaded = sorted(name for name in HEAVY if name in sys.modules)
assert loaded == [], f"routing on scanning tables loaded {loaded}"

table = network.brokers[0].routing_table.table(LOCAL_INTERFACE)
while table.match_index is None:
    subscribe(0)
assert "numpy" in sys.modules
assert "networkx" not in sys.modules
scan = InterfaceTable(LOCAL_INTERFACE, schema)
scan.SCAN_LIMIT = len(table)
for subscription in table.subscriptions():
    scan.add(subscription)
assert scan.match_index is None
matched = 0
for event in events(200):
    indexed, _ = table.matching_ids(event)
    scanned, _ = scan.matching_ids(event)
    assert sorted(indexed) == sorted(scanned)
    assert network.publish_and_audit(0, event) == (set(), set())
    matched += len(scanned)
assert matched > 200
loaded = sorted(name for name in PAPER if name in sys.modules)
assert loaded == [], f"building and querying a match index loaded {loaded}"
print("ok")
"""


def test_a_fresh_interpreter_loads_numpy_only_with_the_first_index():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, *PAPER_MODULES],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]
