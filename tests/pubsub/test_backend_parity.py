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
        ShardedMatchIndex(schema, config=IndexConfig(shards=3), workers="inline"),
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


def test_sharded_process_workers_smoke():
    """Fork-based shard workers answer exactly like inline shards, then shut down."""
    schema = _schema()
    rng = random.Random(5)
    items = []
    for sid in range(60):
        lo_x, lo_y = rng.randrange(32), rng.randrange(32)
        items.append(
            (
                sid,
                (
                    (lo_x, min(31, lo_x + rng.randrange(8))),
                    (lo_y, min(31, lo_y + rng.randrange(8))),
                ),
            )
        )
    inline = ShardedMatchIndex(schema, config=IndexConfig(shards=2), workers="inline")
    inline.add_batch(items)
    with ShardedMatchIndex(schema, config=IndexConfig(shards=2), workers="process") as procs:
        procs.add_batch(items)
        events = [(rng.randrange(32), rng.randrange(32)) for _ in range(40)]
        assert [
            sorted(ids) for ids in procs.matching_ids_batch(events)
        ] == [sorted(ids) for ids in inline.matching_ids_batch(events)]
        assert procs.any_match_batch(events) == inline.any_match_batch(events)
        assert procs.segment_count() == inline.segment_count()
        # Invalid input is rejected in the parent; the workers stay alive.
        with pytest.raises(ValueError):
            procs.add("bad", ((0, 99),))
        assert procs.any_match(events[0]) == inline.any_match(events[0])


def test_sharded_rejects_bad_config():
    schema = _schema()
    with pytest.raises(ValueError):
        ShardedMatchIndex(schema, config=IndexConfig(shards=0))
    with pytest.raises(ValueError):
        ShardedMatchIndex(schema, workers="threads")


def test_sharded_process_stats_survive_close():
    """Closing process workers must drain their counters into the parent.

    Regression: before the drain, reading ``stats`` / ``segment_count`` after
    ``close()`` either hung on dead pipes or silently undercounted every
    sharded interface torn down before stats collection.
    """
    schema = _schema()
    rng = random.Random(11)
    items = [
        (sid, ((lo, min(31, lo + 4)), (lo, min(31, lo + 4))))
        for sid, lo in ((sid, rng.randrange(28)) for sid in range(40))
    ]
    events = [(rng.randrange(32), rng.randrange(32)) for _ in range(25)]

    index = ShardedMatchIndex(schema, config=IndexConfig(shards=2), workers="process")
    try:
        index.add_batch(items)
        index.matching_ids_batch(events)
        index.any_match_batch(events)
        live_stats = index.stats
        live_segments = index.segment_count()
    finally:
        index.close()

    assert live_stats.inserts == 40
    assert live_stats.lookups > 0
    # After close the drained totals answer instead of the dead workers.
    assert index.stats == live_stats
    assert index.segment_count() == live_segments
    index.close()  # idempotent
    assert index.stats == live_stats
