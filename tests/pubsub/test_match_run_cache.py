"""The match index's key runs are shared through the profile cache.

A rectangle's coarsened key runs are pure geometry (Fact 2.1), so every
:class:`~repro.pubsub.match_index.MatchIndex` handed the same
:class:`~repro.pubsub.subscription_store.ProfileCache` decomposes a snapped
rectangle once between them.  The contract under test: the cache is
invisible — stored state, answers and per-insert stats are those of an
uncached index — entries never leak between indexes whose runs would differ
(curve, run budget, precision), eviction only costs a recomputation, and the
cache survives a broker crash because nothing in it was learnt from the
network.
"""

from __future__ import annotations

import pytest

from repro.index.config import IndexConfig
from repro.obs.registry import MetricsRegistry
from repro.pubsub import (
    Broker,
    BrokerNetwork,
    ProfileCache,
    make_event,
    make_subscription,
    tree_topology,
)
from repro.pubsub.match_index import MatchIndex
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.sharded_index import ShardedMatchIndex
from repro.sim import FixedLatency, SimTransport

ORDER = 5  # 32×32 cells: every key of the universe can be probed


@pytest.fixture
def schema():
    return AttributeSchema(
        [Attribute("x", 0.0, 32.0), Attribute("y", 0.0, 32.0)], order=ORDER
    )


def rect(lo_x, hi_x, lo_y, hi_y):
    return ((lo_x, hi_x), (lo_y, hi_y))


#: One scripted add / replace / remove / add_batch sequence.  Rectangles
#: repeat across ids (hits inside one index) and thin ones exceed the run
#: budget below (the coarsened flag must travel with the cached runs).
SCRIPT = [
    ("add", "a", rect(3, 17, 1, 1)),
    ("add", "b", rect(3, 17, 1, 1)),
    ("add", "c", rect(8, 15, 8, 15)),
    ("add", "a", rect(0, 30, 5, 6)),  # replace
    ("remove", "b", None),
    (
        "add_batch",
        [
            ("d", rect(3, 17, 1, 1)),
            ("e", rect(1, 29, 2, 28)),
            ("f", rect(1, 29, 2, 28)),
            ("c", rect(5, 6, 0, 31)),  # replace inside a batch
        ],
        None,
    ),
    ("remove", "e", None),
    ("add", "g", rect(1, 29, 2, 28)),
    ("remove", "missing", None),
]


def run_script(index):
    for op, first, second in SCRIPT:
        if op == "add":
            index.add(first, second)
        elif op == "remove":
            index.remove(first)
        else:
            index.add_batch(first)
    return index


def all_candidates(index):
    return [index.candidates(key) for key in range(index.universe.max_key + 1)]


def test_cached_index_equals_uncached_index(schema):
    config = IndexConfig(run_budget=2)
    cache = ProfileCache()
    uncached = run_script(MatchIndex(schema, config=config))
    filling = run_script(MatchIndex(schema, config=config, run_cache=cache))
    misses = cache.run_misses
    hitting = run_script(MatchIndex(schema, config=config, run_cache=cache))

    # The script's five distinct rectangles were decomposed once each; the
    # second index found every one of them.
    assert misses == 5 and cache.run_misses == misses
    assert cache.run_hits > 0
    assert uncached.stats.coarsened_subscriptions > 0
    for cached in (filling, hitting):
        assert cached.stats == uncached.stats  # before the probes below count lookups
        assert len(cached) == len(uncached)
    expected = all_candidates(uncached)
    for cached in (filling, hitting):
        assert all_candidates(cached) == expected
    for cached in (filling, hitting):
        for attr in ("_runs", "_los", "_his", "_cuts", "_members", "staged"):
            assert getattr(cached._flat, attr) == getattr(uncached._flat, attr)
    # One immutable tuple per rectangle, held by identity in both stores.
    for slot in filling._id_of:
        assert filling._flat.runs_of(slot) is hitting._flat.runs_of(slot)


def test_sharded_index_shares_the_cache_across_shards(schema):
    cache = ProfileCache()
    uncached = run_script(ShardedMatchIndex(schema, config=IndexConfig(shards=3, run_budget=2)))
    cached = run_script(
        ShardedMatchIndex(schema, config=IndexConfig(shards=3, run_budget=2), run_cache=cache)
    )
    assert cache.run_misses == 5 and cache.run_hits > 0
    assert cached.stats == uncached.stats
    for x in range(0, 32, 3):
        for y in range(0, 32, 3):
            assert sorted(cached.matching_ids((x, y))) == sorted(
                uncached.matching_ids((x, y))
            )


@pytest.mark.parametrize(
    "first, second",
    [
        (IndexConfig(curve="zorder"), IndexConfig(curve="hilbert")),
        (IndexConfig(run_budget=1), IndexConfig(run_budget=4)),
        (IndexConfig(precision_bits=3), IndexConfig(precision_bits=5)),
    ],
    ids=["curve", "run_budget", "precision_bits"],
)
def test_indexes_whose_runs_differ_never_share_an_entry(schema, first, second):
    cache = ProfileCache()
    rectangle = rect(3, 17, 2, 9)
    for config in (first, second):
        shared = MatchIndex(schema, config=config, run_cache=cache)
        alone = MatchIndex(schema, config=config)
        shared.add("s", rectangle)
        alone.add("s", rectangle)
        assert shared._flat.runs_of(0) == alone._flat.runs_of(0)
        assert shared.stats == alone.stats
    assert (cache.run_hits, cache.run_misses) == (0, 2)
    # Same config again: now it is a hit.
    MatchIndex(schema, config=second, run_cache=cache).add("s", rectangle)
    assert (cache.run_hits, cache.run_misses) == (1, 2)


def test_evicted_runs_are_recomputed_equal(schema):
    cache = ProfileCache(max_entries=2)
    first = MatchIndex(schema, run_cache=cache)
    rectangles = [rect(3, 17, 2, 9), rect(0, 5, 0, 31), rect(20, 30, 20, 30)]
    for i, rectangle in enumerate(rectangles):
        first.add(i, rectangle)
    assert (cache.run_misses, cache.run_evictions) == (3, 1)
    second = MatchIndex(schema, run_cache=cache)
    second.add("again", rectangles[0])  # evicted above: recomputed, evicts another
    assert (cache.run_hits, cache.run_misses, cache.run_evictions) == (0, 4, 2)
    assert second._flat.runs_of(0) == first._flat.runs_of(0)
    # Covering-profile accounting is a separate ledger.
    assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)


@pytest.mark.usefixtures("indexed_tables")
def test_standalone_broker_shares_its_own_cache(schema):
    subscription = make_subscription(schema, "s", x=(2.0, 9.0), y=(2.0, 9.0))
    broker = Broker(broker_id=0, schema=schema)
    broker.receive_subscription("left", subscription)
    broker.receive_subscription("right", subscription)
    cache = broker.profile_cache
    assert (cache.run_hits, cache.run_misses) == (1, 1)
    broker.reset_routing_state()
    broker.receive_subscription("left", subscription)
    assert (cache.run_hits, cache.run_misses) == (2, 1)


@pytest.mark.usefixtures("indexed_tables")
def test_crash_recover_relearns_from_the_cache(schema):
    network = BrokerNetwork.from_topology(
        schema,
        tree_topology(7),
        covering="approximate",
        transport=SimTransport(FixedLatency(0.3), seed=11),
        seed=2,
        metrics=MetricsRegistry(),
    )
    for i in range(21):
        lo = float((i * 3) % 20)
        network.subscribe(
            i % 7,
            f"c{i}",
            make_subscription(schema, f"s{i}", x=(lo, lo + 10.0), y=(1.0, 8.0 + i)),
        )
    network.flush()
    cache = network.profile_cache
    misses, hits = cache.run_misses, cache.run_hits
    assert 0 < misses <= 21 and hits > 0

    network.crash_broker(1)
    network.flush()
    network.recover_broker(1)
    network.flush()

    # Everything broker 1 re-learns was decomposed before the crash.
    assert cache.run_misses == misses
    assert cache.run_hits > hits
    for j in range(30):
        event = make_event(schema, f"e{j}", x=(j * 7) % 32, y=(j * 5) % 32)
        assert network.publish_and_audit(j % 7, event) == (set(), set())

    assert cache.run_misses == misses
    assert cache.run_evictions == 0
    scrape = network.scrape()
    for name in ("hits", "misses", "evictions"):
        value = getattr(cache, f"run_{name}")
        assert f'counter="match_run_cache_{name}"}} {value}\n' in scrape
