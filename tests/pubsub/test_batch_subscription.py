"""The batch subscription APIs and the incremental promotion engine.

``subscribe_batch`` / ``unsubscribe_batch`` are loops over the sequential
path: given the same per-link arrival order, the final routing / forwarded /
suppressed state is byte-identical to sequential calls, and so are every
broker's counters and the profile cache's, under every covering strategy.
The incremental promotion engine and the shared profile path are
additionally pinned by ``routing_state()`` digests recorded
at the last commit that still carried the legacy full-rescan engine and the
unshared per-check recomputation (PR 12, where each pair was asserted equal),
and the dependents bookkeeping is exercised through cover hand-offs.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.index.config import IndexConfig
from repro.pubsub.network import (
    BrokerNetwork,
    chain_topology,
    star_topology,
    tree_topology,
)
from repro.pubsub.routing_table import InterfaceTable
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription

TOPOLOGIES = {
    "tree": tree_topology,
    "chain": chain_topology,
    "star": star_topology,
}


@pytest.fixture
def schema():
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=8
    )


def random_workload(schema, count, seed, num_brokers=6, wide_every=12):
    """(client, subscription, broker) triples mixing narrow and wide rectangles."""
    rng = random.Random(seed)
    triples = []
    for i in range(count):
        if i % wide_every == 0:
            width = rng.uniform(40, 70)
        else:
            width = rng.uniform(3, 12)
        lo_x, lo_y = rng.uniform(0, 100 - width), rng.uniform(0, 100 - width)
        sub = Subscription(
            schema,
            {"x": (lo_x, lo_x + width), "y": (lo_y, lo_y + width)},
            sub_id=f"s{i}",
        )
        triples.append((f"c{i}", sub, rng.randrange(num_brokers)))
    return triples


def state_digest(network) -> str:
    """SHA-256 of the canonical JSON of ``routing_state()`` (the idiom of
    ``tests/workloads/test_seed_determinism.py``)."""
    return hashlib.sha256(
        json.dumps(network.routing_state(), sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def grouped(triples):
    """Group triples per broker, preserving order (the batch arrival order)."""
    groups = {}
    for client, sub, broker in triples:
        groups.setdefault(broker, []).append((client, sub))
    return groups


def assert_same_work(sequential, batch):
    """Same routing state, broker counters and profile-cache counts on both arms."""
    assert sequential.routing_state() == batch.routing_state()
    assert {b: broker.stats.as_dict() for b, broker in sequential.brokers.items()} == {
        b: broker.stats.as_dict() for b, broker in batch.brokers.items()
    }
    for cache in ("hits", "misses"):
        assert getattr(sequential.profile_cache, cache) == getattr(batch.profile_cache, cache)


class TestBatchEquivalence:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("covering", ["none", "approximate"])
    def test_batch_equals_sequential_state(self, schema, topology, covering):
        """Same arrival order => identical routing state, batch vs sequential."""
        triples = random_workload(schema, 80, seed=5)
        groups = grouped(triples)
        kills = [(client, sub.sub_id) for client, sub, _ in triples[::3]]

        def build():
            return BrokerNetwork.from_topology(
                schema,
                TOPOLOGIES[topology](6),
                covering=covering,
                config=IndexConfig(),
            )

        sequential = build()
        for broker, items in groups.items():
            for client, sub in items:
                sequential.subscribe(broker, client, sub)
        batch = build()
        for broker, items in groups.items():
            batch.subscribe_batch(broker, items)
        assert_same_work(sequential, batch)

        # Withdrawals grouped by home broker in the same order on both sides.
        kill_groups = {}
        for client, sub_id in kills:
            kill_groups.setdefault(sequential.subscription_home(sub_id), []).append(
                (client, sub_id)
            )
        ordered_kills = [pair for group in kill_groups.values() for pair in group]
        for client, sub_id in ordered_kills:
            assert sequential.unsubscribe(client, sub_id)
        flags = batch.unsubscribe_batch(ordered_kills)
        assert all(flags)
        assert_same_work(sequential, batch)

    def test_shared_profile_path_state_pinned(self, schema, monkeypatch):
        """The shared-profile path leaves the state the unshared path left.

        The digest was recorded at PR 12 (commit 1e86f8c), where this test ran
        the workload under ``profile_sharing=True`` and ``=False`` and
        asserted the two routing states equal; both arms hashed to this value.
        The unshared arm is gone, the pin keeps its answer.
        """
        triples = random_workload(schema, 60, seed=13)

        def run():
            network = BrokerNetwork.from_topology(
                schema,
                tree_topology(6),
                covering="approximate",
                config=IndexConfig(),
            )
            for broker, items in grouped(triples).items():
                for client, sub in items:
                    network.subscribe(broker, client, sub)
            for client, sub, _ in triples[::4]:
                network.unsubscribe(client, sub.sub_id)
            return network

        # At the default limit every table scans, and the run cache is idle.
        network = run()
        assert state_digest(network) == "d685f5d4cfb82b16"
        assert (network.profile_cache.misses, network.profile_cache.hits) == (0, 0)
        # The counts below are of indexed tables: a limit of 16 has seven.
        monkeypatch.setattr(InterfaceTable, "SCAN_LIMIT", 16)
        network = run()
        assert state_digest(network) == "d685f5d4cfb82b16"
        # The network's one cache now holds match runs only (the covering
        # profiles it also counted, 60 misses and 288 hits, left with the
        # ε-search).  Seven tables outgrow the scan, each on a 3-bit grid:
        # 56 distinct snapped rectangles are decomposed, once network-wide,
        # and the other 199 times one reaches an indexed table its runs are
        # read back.
        assert network.profile_cache.misses == 56
        assert network.profile_cache.hits == 199


class TestIncrementalPromotion:
    def test_promotion_counter_and_dependents_handoff(self, schema):
        """wide ⊇ mid ⊇ narrow: withdrawing wide promotes mid only; narrow is
        re-homed under mid without a promotion."""
        network = BrokerNetwork.from_topology(
            schema, chain_topology(3), covering="approximate"
        )
        broker0 = network.brokers[0]
        network.subscribe(0, "cw", Subscription(schema, {"x": (0.0, 90.0)}, sub_id="wide"))
        network.subscribe(0, "cm", Subscription(schema, {"x": (5.0, 60.0)}, sub_id="mid"))
        network.subscribe(0, "cn", Subscription(schema, {"x": (10.0, 20.0)}, sub_id="narrow"))
        assert broker0.stats.promotions == 0

        network.unsubscribe("cw", "wide")
        assert broker0.has_forwarded(1, "mid")
        assert not broker0.has_forwarded(1, "narrow")
        assert broker0.stats.promotions == 1  # mid promoted; narrow re-homed

        network.unsubscribe("cm", "mid")
        assert broker0.has_forwarded(1, "narrow")
        assert broker0.stats.promotions == 2
        delivered = network.publish(2, Event(schema, {"x": 15.0, "y": 5.0}))
        assert delivered == {"cn"}

    def test_unrelated_withdrawal_triggers_no_rechecks(self, schema):
        """Withdrawing a sub that covers nothing must not re-check suppressed subs."""
        network = BrokerNetwork.from_topology(
            schema, chain_topology(2), covering="approximate"
        )
        broker0 = network.brokers[0]
        network.subscribe(0, "cw", Subscription(schema, {"x": (0.0, 90.0)}, sub_id="wide"))
        network.subscribe(0, "cn", Subscription(schema, {"x": (10.0, 20.0)}, sub_id="narrow"))
        network.subscribe(0, "cz", Subscription(schema, {"y": (80.0, 90.0)}, sub_id="solo"))
        checks_before = broker0.stats.covering_checks
        network.unsubscribe("cz", "solo")  # forwarded, but covers nothing
        # Incremental engine: zero promotion re-checks (no dependents).
        assert broker0.stats.covering_checks == checks_before
        assert "narrow" in broker0._links[1].suppressed

    @pytest.mark.parametrize(
        "topology, pinned, promotions",
        [
            ("chain", "b9f10c306fb7836c", 50),
            ("star", "8ee27d6c788cc1da", 82),
            ("tree", "deefa4a01269ac0f", 52),
        ],
        ids=["chain", "star", "tree"],
    )
    def test_incremental_state_pinned_to_rescan_on_exact(
        self, schema, topology, pinned, promotions
    ):
        """Heavy withdrawal churn leaves the state the full-rescan engine left.

        On exact covering promotion is a deterministic function of the
        arrival order.  The digests and promotion counts were recorded at
        PR 12 (commit 1e86f8c), where this test ran the workload under
        ``promotion="incremental"`` and ``promotion="rescan"`` and asserted
        the two routing states equal; both engines produced these values.
        The rescan engine is gone, the pins keep its answer.
        """
        triples = random_workload(schema, 70, seed=21)
        network = BrokerNetwork.from_topology(
            schema, TOPOLOGIES[topology](6), covering="approximate"
        )
        for broker, items in grouped(triples).items():
            for client, sub in items:
                network.subscribe(broker, client, sub)
        for client, sub, _ in triples[::2]:
            network.unsubscribe(client, sub.sub_id)
        assert state_digest(network) == pinned
        assert sum(b.stats.promotions for b in network.brokers.values()) == promotions
