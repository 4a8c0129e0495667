"""Internet-scale topology generators and the spanning-tree overlay builder."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.pubsub import BrokerNetwork
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.sim import RegionLatency
from repro.workloads.topologies import (
    TOPOLOGY_CLASSES,
    Topology,
    grid_cluster_topology,
    make_topology,
    scale_free_topology,
    skewed_tree_topology,
    spanning_tree_overlay,
)


def digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def topology_payload(topology: Topology):
    """Canonical serialisation of a Topology for digest pinning."""
    return {
        "name": topology.name,
        "underlay": [[repr(a), repr(b)] for a, b in topology.underlay],
        "overlay": [[repr(a), repr(b)] for a, b in topology.overlay],
        "regions": sorted([repr(k), repr(v)] for k, v in topology.regions.items()),
    }


def assert_spanning_tree(topology: Topology) -> None:
    """The overlay is a spanning tree of the underlay's node set."""
    nodes = topology.broker_ids
    assert len(topology.overlay) == len(nodes) - 1
    # Connected + n-1 edges == tree (acyclic); connectivity via the
    # components helper, whose traversal is independent of the generators.
    assert topology.components_without([]) == [nodes]
    underlay_edges = {frozenset(edge) for edge in topology.underlay}
    assert all(frozenset(edge) in underlay_edges for edge in topology.overlay)


class TestSpanningTreeOverlay:
    def test_cycle_to_tree(self):
        square = [(0, 1), (1, 2), (2, 3), (3, 0)]
        tree = spanning_tree_overlay(square)
        assert len(tree) == 3
        assert {frozenset(e) for e in tree} < {frozenset(e) for e in square}

    def test_network_accepts_derived_overlay(self):
        # The point of the builder: a cyclic underlay BrokerNetwork.connect
        # would reject becomes a valid acyclic overlay.
        schema = AttributeSchema([Attribute("x", 0.0, 10.0)], order=4)
        underlay = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]
        with pytest.raises(ValueError):
            BrokerNetwork.from_topology(schema, underlay)
        network = BrokerNetwork.from_topology(schema, spanning_tree_overlay(underlay))
        assert set(network.brokers) == {0, 1, 2, 3, 4}

    def test_deterministic_per_seed(self):
        underlay = scale_free_topology(40, seed=1).underlay
        assert spanning_tree_overlay(underlay, seed=5) == spanning_tree_overlay(
            underlay, seed=5
        )
        assert spanning_tree_overlay(underlay, seed=5) != spanning_tree_overlay(
            underlay, seed=6
        )
        # seed=None is the canonical sorted-order BFS tree, also stable.
        assert spanning_tree_overlay(underlay) == spanning_tree_overlay(underlay)

    def test_disconnected_underlay_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            spanning_tree_overlay([(0, 1), (2, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            spanning_tree_overlay([(0, 0)])

    def test_empty_underlay(self):
        assert spanning_tree_overlay([]) == []


class TestGenerators:
    @pytest.mark.parametrize("kind", TOPOLOGY_CLASSES)
    def test_overlay_is_spanning_tree(self, kind):
        assert_spanning_tree(make_topology(kind, 120, seed=7))

    @pytest.mark.parametrize("kind", TOPOLOGY_CLASSES)
    def test_every_broker_has_a_region(self, kind):
        topology = make_topology(kind, 80, seed=7)
        assert set(topology.regions) == set(topology.broker_ids)

    def test_skew_changes_shape(self):
        # Positive skew concentrates fan-out on hubs; negative skew spreads
        # attachment out, stretching depth.  Measure via max degree.
        def max_children(topology):
            counts = {}
            for parent, _child in topology.overlay:
                counts[parent] = counts.get(parent, 0) + 1
            return max(counts.values())

        hubby = skewed_tree_topology(200, skew=3.0, seed=5)
        flat = skewed_tree_topology(200, skew=-3.0, seed=5)
        assert max_children(hubby) > max_children(flat)

    def test_scale_free_underlay_has_cycles(self):
        topology = scale_free_topology(60, attach=2, seed=3)
        assert len(topology.underlay) > len(topology.overlay)

    def test_grid_cluster_regions_are_clusters(self):
        topology = grid_cluster_topology(2, 3, 5, seed=0)
        assert topology.num_brokers == 30
        assert len(topology.region_ids()) == 6
        assert all(len(topology.region_members(r)) == 5 for r in topology.region_ids())

    def test_single_broker_degenerates_cleanly(self):
        for topology in (skewed_tree_topology(1), scale_free_topology(1)):
            assert topology.broker_ids == [0]
            assert topology.overlay == ()
            assert topology.regions == {0: 0}

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: skewed_tree_topology(0),
            lambda: scale_free_topology(0),
            lambda: scale_free_topology(5, attach=0),
            lambda: grid_cluster_topology(0, 2, 4),
            lambda: grid_cluster_topology(2, 2, 0),
            lambda: make_topology("moebius", 10),
        ],
    )
    def test_invalid_parameters_rejected(self, factory):
        with pytest.raises(ValueError):
            factory()

    def test_generator_digests(self):
        """Same seed, same topology, byte for byte — drift fails loudly.

        If a change is intentional, re-pin in the same commit and say so.
        """
        pins = {
            "87abc7b56c6dc063": lambda: skewed_tree_topology(64, skew=1.5, seed=42),
            "76381e79ddd9c89f": lambda: scale_free_topology(64, attach=2, seed=42),
            "aa83dadd06cf7ad9": lambda: grid_cluster_topology(3, 3, 6, seed=42),
        }
        for expected, factory in pins.items():
            assert digest(topology_payload(factory())) == expected


class TestRegionHelpers:
    def test_gateways_touch_other_regions(self):
        topology = make_topology("grid-cluster", 64, seed=13)
        for region in topology.region_ids():
            members = set(topology.region_members(region))
            gateways = topology.region_gateways(region)
            assert gateways, region
            neighbor_sets = {
                gw: {b for a, b in topology.overlay if a == gw}
                | {a for a, b in topology.overlay if b == gw}
                for gw in gateways
            }
            assert all(neighbor_sets[gw] - members for gw in gateways)

    def test_components_without_matches_live_components(self):
        schema = AttributeSchema([Attribute("x", 0.0, 10.0)], order=4)
        topology = make_topology("skewed-tree", 40, seed=13)
        network = BrokerNetwork.from_topology(
            schema, topology.overlay, nodes=topology.broker_ids
        )
        region = max(topology.region_ids(), key=lambda r: len(topology.region_members(r)))
        gateways = topology.region_gateways(region)
        for gateway in gateways:
            network.crash_broker(gateway)
        static = topology.components_without(gateways)
        live = network.live_components()
        assert [sorted(c, key=str) for c in live] == static

    def test_components_ordered_and_disjoint(self):
        topology = make_topology("scale-free", 50, seed=3)
        down = topology.broker_ids[:5]
        components = topology.components_without(down)
        seen = set()
        for component in components:
            assert not (set(component) & seen)
            seen.update(component)
        assert seen == set(topology.broker_ids) - set(down)
        assert components == sorted(components, key=lambda c: str(c[0]))


class TestRegionLatency:
    def test_lan_vs_wan_tiers(self):
        model = RegionLatency({0: "eu", 1: "eu", 2: "us"}, lan=0.01, wan=0.4)
        rng = random.Random(0)
        assert model.sample(0, 1, rng) == 0.01
        assert model.sample(1, 2, rng) == 0.4
        # Unknown brokers are singleton regions: always WAN.
        assert model.sample(0, 99, rng) == 0.4

    def test_topology_wiring(self):
        topology = make_topology("grid-cluster", 32, seed=1)
        wired = topology.latency_model(lan=0.02, wan=0.3)
        assert isinstance(wired, RegionLatency)
        assert wired.regions == topology.regions

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            RegionLatency({}, lan=-0.1)
