"""The match index's key runs are shared through the profile cache.

A rectangle's coarsened key runs are pure geometry (Fact 2.1), so every
:class:`~repro.pubsub.match_index.MatchIndex` handed the same
:class:`~repro.pubsub.subscription_store.ProfileCache` decomposes a snapped
rectangle once between them.  The contract under test: the cache is
invisible — stored state, answers and per-insert stats are those of an
uncached index — entries never leak between indexes whose runs would differ
(run budget, precision), eviction only costs a recomputation, and the
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
    Event,
    ProfileCache,
    Subscription,
    tree_topology,
)
from repro.pubsub.match_index import MatchIndex
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.sim import FixedLatency, SimTransport

ORDER = 5  # 32×32 cells: every key of the universe can be probed
DEFAULT_RUN_BUDGET = MatchIndex.RUN_BUDGET


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


@pytest.mark.parametrize(
    "config, distinct",
    [
        # On the schema's whole 5-bit grid the script's five distinct
        # rectangles are decomposed once each.
        (IndexConfig(precision_bits=ORDER), 5),
        # A derived grid starts at 1 bit per dimension (two distinct snapped
        # rectangles) and steps to 2 bits when the batch brings the table to
        # five subscriptions: "a", the one stored subscription the batch does
        # not replace, is re-derived, and the batch's four rectangles are
        # three distinct ones at that grid.
        (IndexConfig(), 2 + 1 + 3),
    ],
    ids=["pinned", "derived"],
)
def test_cached_index_equals_uncached_index(schema, monkeypatch, config, distinct):
    monkeypatch.setattr(MatchIndex, "RUN_BUDGET", 2)
    cache = ProfileCache()
    uncached = run_script(MatchIndex(schema, config=config))
    filling = run_script(MatchIndex(schema, config=config, run_cache=cache))
    misses = cache.misses
    hitting = run_script(MatchIndex(schema, config=config, run_cache=cache))

    # Every distinct (grid, rectangle) pair was decomposed once; the second
    # index found every one of them.
    assert misses == distinct and cache.misses == misses
    assert cache.hits > 0
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


@pytest.mark.parametrize(
    "first, second",
    [
        ((IndexConfig(), 1), (IndexConfig(), 4)),
        (
            (IndexConfig(precision_bits=3), DEFAULT_RUN_BUDGET),
            (IndexConfig(precision_bits=5), DEFAULT_RUN_BUDGET),
        ),
    ],
    ids=["run_budget", "precision_bits"],
)
def test_indexes_whose_runs_differ_never_share_an_entry(schema, monkeypatch, first, second):
    cache = ProfileCache()
    rectangle = rect(3, 17, 2, 9)
    for config, run_budget in (first, second):
        monkeypatch.setattr(MatchIndex, "RUN_BUDGET", run_budget)
        shared = MatchIndex(schema, config=config, run_cache=cache)
        alone = MatchIndex(schema, config=config)
        shared.add("s", rectangle)
        alone.add("s", rectangle)
        assert shared._flat.runs_of(0) == alone._flat.runs_of(0)
        assert shared.stats == alone.stats
    assert (cache.hits, cache.misses) == (0, 2)
    # Same config again: now it is a hit.
    MatchIndex(schema, config=second[0], run_cache=cache).add("s", rectangle)
    assert (cache.hits, cache.misses) == (1, 2)


def test_evicted_runs_are_recomputed_equal(schema, monkeypatch):
    monkeypatch.setattr(ProfileCache, "MAX_ENTRIES", 2)
    cache = ProfileCache()
    first = MatchIndex(schema, run_cache=cache)
    rectangles = [rect(3, 17, 2, 9), rect(0, 5, 0, 31), rect(20, 30, 20, 30)]
    for i, rectangle in enumerate(rectangles):
        first.add(i, rectangle)
    assert (cache.misses, cache.evictions) == (3, 1)
    second = MatchIndex(schema, run_cache=cache)
    second.add("again", rectangles[0])  # evicted above: recomputed, evicts another
    assert (cache.hits, cache.misses, cache.evictions) == (0, 4, 2)
    assert second._flat.runs_of(0) == first._flat.runs_of(0)
    assert len(cache) == 2  # the cap holds


@pytest.mark.usefixtures("indexed_tables")
def test_standalone_broker_shares_its_own_cache(schema):
    subscription = Subscription(schema, {"x": (2.0, 9.0), "y": (2.0, 9.0)}, sub_id="s")
    broker = Broker(broker_id=0, schema=schema)
    broker.receive_subscription("left", subscription)
    broker.receive_subscription("right", subscription)
    cache = broker.profile_cache
    assert (cache.hits, cache.misses) == (1, 1)
    broker.reset_routing_state()
    broker.receive_subscription("left", subscription)
    assert (cache.hits, cache.misses) == (2, 1)


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
    subscriptions = []
    for i in range(21):
        lo = float((i * 3) % 20)
        subscription = Subscription(schema, {"x": (lo, lo + 10.0), "y": (1.0, 8.0 + i)}, sub_id=f"s{i}")
        subscriptions.append(subscription)
        network.subscribe(i % 7, f"c{i}", subscription)
    network.flush()
    cache = network.profile_cache
    misses, hits = cache.misses, cache.hits
    # The indexes grew their grids from 1 bit per dimension up to the finest
    # one reached, and every rectangle reached a table on each of them: it
    # was decomposed exactly once per grid, as the rectangle it snaps to
    # there (a snapped rectangle shared by several is decomposed once).
    finest = max(
        table.match_index.precision_bits
        for broker in network.brokers.values()
        for table in broker.routing_table.interface_tables().values()
    )
    snapped = {
        (bits, tuple((lo >> (ORDER - bits), hi >> (ORDER - bits)) for lo, hi in sub.ranges))
        for sub in subscriptions
        for bits in range(1, finest + 1)
    }
    assert misses == len(snapped) and hits > 0

    network.crash_broker(1)
    network.flush()
    network.recover_broker(1)
    network.flush()

    # Everything broker 1 re-learns was decomposed before the crash.
    assert cache.misses == misses
    assert cache.hits > hits
    for j in range(30):
        event = Event(schema, {"x": (j * 7) % 32, "y": (j * 5) % 32}, event_id=f"e{j}")
        assert network.publish_and_audit(j % 7, event) == (set(), set())

    assert cache.misses == misses
    assert cache.evictions == 0
    scrape = network.scrape()
    for name in ("hits", "misses", "evictions"):
        value = getattr(cache, name)
        assert f'counter="match_run_cache_{name}"}} {value}\n' in scrape
