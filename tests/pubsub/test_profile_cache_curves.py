"""ProfileCache curve-keying: one rectangle, two curves, two cached plans.

A cached :class:`~repro.core.covering.CoveringProfile` embeds a probe plan
whose key ranges are curve-specific.  The cache therefore namespaces entries
by the building profiler's ``cache_key`` — curve kind, attribute shape, ε and
cube budget — so the same quantised ranges profiled under two curves (or two
detector configurations) never alias to one plan.
"""

from __future__ import annotations

from repro.core.covering import CoveringProfiler
from repro.index.config import IndexConfig
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Subscription
from repro.pubsub.subscription_store import ProfileCache

RANGES = ((5, 20), (8, 30))


def make_profiler(curve: str) -> CoveringProfiler:
    return CoveringProfiler(2, 6, config=IndexConfig(epsilon=0.1, cube_budget=500, curve=curve))


class TestProfileCacheCurveKeying:
    def test_same_ranges_under_two_curves_do_not_share_an_entry(self):
        cache = ProfileCache()
        zorder = make_profiler("zorder")
        hilbert = make_profiler("hilbert")

        z_profile = cache.covering_profile(RANGES, profiler=zorder)
        assert (cache.hits, cache.misses) == (0, 1)
        h_profile = cache.covering_profile(RANGES, profiler=hilbert)
        # Same ranges, different curve: a second miss, not a hit.
        assert (cache.hits, cache.misses) == (0, 2)
        assert len(cache) == 2
        assert z_profile is not h_profile
        assert z_profile.plan.curve_kind == "zorder"
        assert h_profile.plan.curve_kind == "hilbert"
        # Same point and ranges either way — only the plan's keying differs.
        assert z_profile.point == h_profile.point
        assert z_profile.ranges == h_profile.ranges

        # Repeat lookups hit their own curve's entry.
        assert cache.covering_profile(RANGES, profiler=zorder) is z_profile
        assert cache.covering_profile(RANGES, profiler=hilbert) is h_profile
        assert (cache.hits, cache.misses) == (2, 2)

    def test_epsilon_and_budget_also_namespace_entries(self):
        cache = ProfileCache()
        base = make_profiler("zorder")
        other_eps = CoveringProfiler(
            2, 6, config=IndexConfig(epsilon=0.3, cube_budget=500, curve="zorder")
        )
        other_budget = CoveringProfiler(
            2, 6, config=IndexConfig(epsilon=0.1, cube_budget=50, curve="zorder")
        )
        cache.covering_profile(RANGES, profiler=base)
        cache.covering_profile(RANGES, profiler=other_eps)
        cache.covering_profile(RANGES, profiler=other_budget)
        assert (cache.hits, cache.misses) == (0, 3)
        assert len(cache) == 3

    def test_default_profiler_lookups_stay_memoised(self):
        """The common path — one profiler owned by the cache — still shares."""
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
