"""ProfileCache curve-keying: one cache per profiler, one plan per rectangle.

A cached :class:`~repro.core.covering.CoveringProfile` embeds a probe plan
whose key ranges are curve-specific.  A cache profiles under its one
profiler, so ranges alone key its entries; two networks on different curves
build two caches and never share a plan.
"""

from __future__ import annotations

from repro.core.covering import CoveringProfiler
from repro.index.config import IndexConfig
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Subscription
from repro.pubsub.subscription_store import ProfileCache

def make_profiler(curve: str) -> CoveringProfiler:
    return CoveringProfiler(2, 6, config=IndexConfig(epsilon=0.1, cube_budget=500, curve=curve))


class TestProfileCacheCurveKeying:
    def test_default_profiler_lookups_stay_memoised(self):
        """Two subscriptions with one rectangle share the cache's one profile."""
        cache = ProfileCache(make_profiler("hilbert"))
        schema = AttributeSchema(
            [Attribute("x", 0.0, 63.0), Attribute("y", 0.0, 63.0)], order=6
        )
        sub_a = Subscription(schema, {"x": (5.0, 20.0)}, sub_id="a")
        sub_b = Subscription(schema, {"x": (5.0, 20.0)}, sub_id="b")
        profile_a = cache.profile(sub_a)
        profile_b = cache.profile(sub_b)
        assert (cache.hits, cache.misses) == (1, 1)
        assert profile_a.covering is profile_b.covering

    def test_network_cache_is_keyed_by_its_curve(self):
        """Two same-shape networks on different curves build disjoint caches;
        each records only misses for first-seen rectangles and hits for the
        per-broker re-profiles along the propagation path."""
        schema = AttributeSchema(
            [Attribute("x", 0.0, 63.0), Attribute("y", 0.0, 63.0)], order=6
        )
        subscription = Subscription(schema, {"x": (3.0, 40.0)}, sub_id="s0")
        stats = {}
        for curve in ("zorder", "hilbert"):
            network = BrokerNetwork.from_topology(
                schema,
                tree_topology(3),
                covering="approximate",
                config=IndexConfig(epsilon=0.2, cube_budget=300, curve=curve),
            )
            network.subscribe(0, "c0", subscription)
            cache = network.profile_cache
            assert cache.profiler is not None and cache.profiler.config.curve == curve
            # One rectangle network-wide: exactly one plan built, the other
            # brokers' acquisitions hit the shared entry.
            assert cache.misses == 1
            stats[curve] = (cache.hits, cache.misses)
        assert stats["zorder"] == stats["hilbert"]
