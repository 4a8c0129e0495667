"""Backend parity: both match stores must give byte-identical answers.

The flat segment store is the default and ``"sharded"`` partitions the
subscriptions across several of them; the choice is pure performance — a
differential lifecycle test drives both through the same random
subscribe/replace/withdraw/publish history against a linear-scan oracle, and
whole-network runs must produce identical ``routing_state()`` under both,
pinned to a recorded digest.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.config import IndexConfig
from repro.pubsub.match_index import MatchIndex
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.sharded_index import ShardedMatchIndex
from repro.workloads.dynamics import run_scripted_lockstep, subscription_churn_script
from repro.workloads.scenarios import stock_market_scenario


def _schema(order=5):
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=order
    )


def _make_indexes(schema):
    return [
        MatchIndex(schema),
        ShardedMatchIndex(schema, config=IndexConfig(shards=3)),
    ]


_lifecycle = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "query"]),
        st.integers(0, 12),  # subscription id pool
        st.tuples(st.integers(0, 31), st.integers(0, 31)),
        st.tuples(st.integers(0, 31), st.integers(0, 31)),
    ),
    max_size=60,
)


@given(_lifecycle, st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)), max_size=25))
def test_lifecycle_differential_all_backends(ops, probes):
    schema = _schema()
    indexes = _make_indexes(schema)
    oracle = {}
    for op, sid, (xa, xb), (ya, yb) in ops:
        if op == "add":
            ranges = ((min(xa, xb), max(xa, xb)), (min(ya, yb), max(ya, yb)))
            for index in indexes:
                index.add(sid, ranges)
            oracle[sid] = ranges
        elif op == "remove":
            expected = sid in oracle
            oracle.pop(sid, None)
            for index in indexes:
                assert index.remove(sid) == expected
        else:
            cells = (xa, ya)
            expected_ids = sorted(
                s
                for s, rect in oracle.items()
                if all(lo <= c <= hi for (lo, hi), c in zip(rect, cells))
            )
            for index in indexes:
                assert sorted(index.matching_ids(cells)) == expected_ids
                assert index.any_match(cells) == bool(expected_ids)
        for index in indexes:
            assert len(index) == len(oracle)
    for cells in probes:
        expected_ids = sorted(
            s
            for s, rect in oracle.items()
            if all(lo <= c <= hi for (lo, hi), c in zip(rect, cells))
        )
        for index in indexes:
            assert sorted(index.matching_ids(cells)) == expected_ids


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_batch_queries_agree_with_scalar(seed):
    schema = _schema()
    rng = random.Random(seed)
    indexes = _make_indexes(schema)
    for sid in range(40):
        lo_x, lo_y = rng.randrange(32), rng.randrange(32)
        ranges = (
            (lo_x, min(31, lo_x + rng.randrange(12))),
            (lo_y, min(31, lo_y + rng.randrange(12))),
        )
        for index in indexes:
            index.add(sid, ranges)
    events = [(rng.randrange(32), rng.randrange(32)) for _ in range(60)]
    for index in indexes:
        scalar_ids = [sorted(index.matching_ids(e)) for e in events]
        scalar_any = [index.any_match(e) for e in events]
        assert [sorted(ids) for ids in index.matching_ids_batch(events)] == scalar_ids
        assert index.any_match_batch(events) == scalar_any


def test_add_batch_equals_sequential_adds():
    schema = _schema()
    rng = random.Random(99)
    items = []
    for sid in range(120):
        lo_x, lo_y = rng.randrange(32), rng.randrange(32)
        items.append(
            (
                sid,
                (
                    (lo_x, min(31, lo_x + rng.randrange(10))),
                    (lo_y, min(31, lo_y + rng.randrange(10))),
                ),
            )
        )
    sequential = MatchIndex(schema)
    for sid, ranges in items:
        sequential.add(sid, ranges)
    batched = MatchIndex(schema)
    batched.add_batch(items)
    sharded = ShardedMatchIndex(schema, config=IndexConfig(shards=4))
    sharded.add_batch(items)
    for _ in range(200):
        cells = (rng.randrange(32), rng.randrange(32))
        expected = sorted(sequential.matching_ids(cells))
        assert sorted(batched.matching_ids(cells)) == expected
        assert sorted(sharded.matching_ids(cells)) == expected
    # The sharded counters sum its shards': one insert per item, and every
    # probe stabs each of the four shards once.
    assert sharded.stats.inserts == batched.stats.inserts == len(items)
    assert sharded.stats.lookups == 4 * batched.stats.lookups


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def _network_state(backend: str, covering: str = "approximate"):
    scenario = stock_market_scenario(num_subscriptions=25, num_events=10, order=7, seed=5)
    network = BrokerNetwork.from_topology(
        scenario.schema,
        tree_topology(7),
        covering=covering,
        config=IndexConfig(epsilon=0.2, cube_budget=500, backend=backend),
    )
    script = subscription_churn_script(scenario, list(range(7)), seed=3)
    run_scripted_lockstep(network, script)
    return network.routing_state()


def test_routing_state_identical_across_backends():
    """Backend choice is invisible in routing state — and the default is pinned.

    If the pin moves, routing behaviour changed (not just performance);
    re-pin only with an explanation in the same commit.
    """
    states = {name: _network_state(name) for name in ("flat", "sharded")}
    assert states["flat"] == states["sharded"]
    # Same digest as the Hilbert-curve pin in test_seed_determinism: routing
    # state depends on neither curve nor backend, only on forwarding decisions.
    # Every link of this script holds fewer forwarded subscriptions than a
    # probe schedule has cubes, so each check compares them directly and the
    # decisions — hence the digest — are those of exact covering.
    assert _digest(states["flat"]) == "c6ad33953fcabcc0"
    assert states["flat"] == _network_state("flat", covering="exact")


def test_sharded_rejects_bad_config():
    schema = _schema()
    with pytest.raises(ValueError):
        ShardedMatchIndex(schema, config=IndexConfig(shards=0))


@pytest.mark.parametrize(
    "bad",
    [((0, 99), (0, 5)), ((0, 5),), ((7, 3), (0, 5)), ((-1, 3), (0, 5))],
    ids=["past-the-grid", "too-few-ranges", "inverted", "negative"],
)
def test_sharded_rejects_bad_input_before_any_shard_changes(bad):
    """A rejected ``add``, or a batch with one bad item among good ones, changes
    nothing: not the size, not any answer, not the shard the next accepted id
    lands on."""
    schema = _schema()
    rng = random.Random(7)
    items = []
    for sid in range(10):
        lo_x, lo_y = rng.randrange(32), rng.randrange(32)
        items.append((sid, ((lo_x, min(31, lo_x + 9)), (lo_y, min(31, lo_y + 9)))))
    index = ShardedMatchIndex(schema, config=IndexConfig(shards=3))
    index.add_batch(items[:7])  # round-robin: the next new id goes to shard 1
    cells = [(x, y) for x in range(32) for y in range(32)]
    answers = [sorted(index.matching_ids(c)) for c in cells]

    with pytest.raises(ValueError):
        index.add("bad", bad)
    with pytest.raises(ValueError):
        index.add(3, bad)  # a rejected replacement keeps the old rectangle
    with pytest.raises(ValueError):
        index.add_batch([items[7], ("bad", bad), items[8]])

    assert len(index) == 7
    assert "bad" not in index and 7 not in index and 8 not in index
    assert [sorted(index.matching_ids(c)) for c in cells] == answers
    index.add(*items[9])
    assert [9 in shard for shard in index._indexes] == [False, True, False]
