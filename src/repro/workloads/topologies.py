"""Internet-scale topology generators and the spanning-tree overlay builder.

The stock shapes (``tree_topology`` / ``chain_topology`` / ``star_topology``)
top out at toy scale: regular fan-out, no notion of geography, nothing to
partition.  This module generates the large irregular graphs the paper's
overlay model actually has to survive on, and bridges them to the acyclic
routing overlay :class:`~repro.pubsub.network.BrokerNetwork` requires:

* :func:`skewed_tree_topology` — random recursive trees with a configurable
  fan-out skew: ``skew=0`` attaches each new broker to a uniformly random
  earlier one, larger skews attach preferentially to already-busy brokers
  (heavy hubs, long thin tails — the degree mix of real deployments).
* :func:`scale_free_topology` — Barabási–Albert preferential attachment.
  The underlay has cycles; the routing overlay is derived by
  :func:`spanning_tree_overlay`.
* :func:`grid_cluster_topology` — a cluster-of-clusters WAN: dense LAN
  clusters (ring plus a seeded chord) arranged on a grid, adjacent clusters
  joined by WAN gateway links.  Region metadata feeds
  :class:`~repro.sim.latency.RegionLatency` so intra-cluster links are fast
  and inter-cluster links slow.

Every generator returns a :class:`Topology`: the raw *underlay* edge list
(kept for latency/region metadata — it may contain cycles), the acyclic
*overlay* the brokers route on, and a broker → region map.  All randomness is
seeded; same seed, same topology, byte for byte (digest-pinned in
``tests/workloads/test_topologies.py``).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..sim.latency import RegionLatency

__all__ = [
    "Topology",
    "spanning_tree_overlay",
    "skewed_tree_topology",
    "scale_free_topology",
    "grid_cluster_topology",
    "TOPOLOGY_CLASSES",
    "make_topology",
]

Edge = Tuple[Hashable, Hashable]


def _adjacency(edges: Sequence[Edge]) -> Dict[Hashable, List[Hashable]]:
    adjacency: Dict[Hashable, List[Hashable]] = {}
    for a, b in edges:
        if a == b:
            raise ValueError(f"self-loop on {a!r}")
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    return adjacency


def spanning_tree_overlay(edges: Sequence[Edge], seed: Optional[int] = None) -> List[Edge]:
    """Derive an acyclic routing overlay from any connected underlay graph.

    A breadth-first spanning tree rooted at the smallest node in string
    order: BFS keeps overlay routes as short as the underlay allows, which is
    what an operator deploying per-source trees over an ISP graph would pick.  Deterministic: each node's neighbours are visited in
    sorted order, then shuffled by ``seed`` when one is given — same seed,
    same tree; ``seed=None`` is the canonical sorted-order tree.  Raises
    ``ValueError`` when the underlay is disconnected (a spanning tree cannot
    exist) — netsplits are *runtime* churn, not a topology-build input.
    """
    adjacency = _adjacency(edges)
    if not adjacency:
        return []
    root = min(adjacency, key=str)
    rng = random.Random(seed) if seed is not None else None
    tree: List[Edge] = []
    seen: Set[Hashable] = {root}
    frontier = deque([root])
    while frontier:
        node = frontier.popleft()
        neighbors = sorted(adjacency[node], key=str)
        if rng is not None:
            rng.shuffle(neighbors)
        for neighbor in neighbors:
            if neighbor in seen:
                continue
            seen.add(neighbor)
            tree.append((node, neighbor))
            frontier.append(neighbor)
    if len(seen) != len(adjacency):
        missing = sorted(set(adjacency) - seen, key=str)[:5]
        raise ValueError(
            f"underlay is disconnected: {len(adjacency) - len(seen)} nodes "
            f"unreachable from {root!r} (e.g. {missing})"
        )
    return tree


@dataclass(frozen=True)
class Topology:
    """A generated broker topology: underlay, acyclic overlay, region metadata.

    ``underlay`` is the raw generated graph (scale-free underlays contain
    cycles); ``overlay`` is the acyclic edge list
    :meth:`~repro.pubsub.network.BrokerNetwork.from_topology` accepts, with
    every underlay node present.  ``regions`` maps each broker to a region
    label — subtree branches for trees, grid clusters for the WAN topology —
    the unit the region-churn scripts split and heal.
    """

    name: str
    underlay: Tuple[Edge, ...]
    overlay: Tuple[Edge, ...]
    regions: Dict[Hashable, Hashable] = field(default_factory=dict)

    @property
    def broker_ids(self) -> List[Hashable]:
        """Every broker in the topology, sorted (string order), edge-less included."""
        nodes: Set[Hashable] = set(self.regions)
        for a, b in self.underlay:
            nodes.add(a)
            nodes.add(b)
        for a, b in self.overlay:
            nodes.add(a)
            nodes.add(b)
        return sorted(nodes, key=str)

    @property
    def num_brokers(self) -> int:
        return len(self.broker_ids)

    def region_members(self, region: Hashable) -> List[Hashable]:
        """Brokers belonging to ``region``, sorted (string order)."""
        return sorted(
            (b for b, r in self.regions.items() if r == region), key=str
        )

    def region_ids(self) -> List[Hashable]:
        """All region labels, sorted (string order)."""
        return sorted(set(self.regions.values()), key=str)

    def region_gateways(self, region: Hashable) -> List[Hashable]:
        """Members of ``region`` with an overlay neighbour outside it.

        Crashing a region's gateways is the crash-based model of a netsplit:
        the region's interior stays up but loses its only overlay routes to
        the rest of the network.
        """
        members = set(self.region_members(region))
        gateways: Set[Hashable] = set()
        for a, b in self.overlay:
            if a in members and b not in members:
                gateways.add(a)
            elif b in members and a not in members:
                gateways.add(b)
        return sorted(gateways, key=str)

    def components_without(self, down: Sequence[Hashable]) -> List[List[Hashable]]:
        """Connected components of the overlay once ``down`` brokers crash.

        Static mirror of :meth:`BrokerNetwork.live_components` — script
        builders use it to plan per-partition publishes before a network
        exists.  Ordered by smallest member (string order), members sorted.
        """
        dead = set(down)
        adjacency: Dict[Hashable, List[Hashable]] = {
            node: [] for node in self.broker_ids if node not in dead
        }
        for a, b in self.overlay:
            if a not in dead and b not in dead:
                adjacency[a].append(b)
                adjacency[b].append(a)
        components: List[List[Hashable]] = []
        seen: Set[Hashable] = set()
        for start in sorted(adjacency, key=str):
            if start in seen:
                continue
            stack, members = [start], []
            seen.add(start)
            while stack:
                node = stack.pop()
                members.append(node)
                for neighbor in adjacency[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            components.append(sorted(members, key=str))
        return sorted(components, key=lambda c: str(c[0]))

    def latency_model(self, lan: float = 0.05, wan: float = 0.5) -> RegionLatency:
        """A WAN-vs-LAN :class:`~repro.sim.latency.RegionLatency` from the region
        map, without jitter."""
        return RegionLatency(self.regions, lan=lan, wan=wan)


def _subtree_regions(overlay: Sequence[Edge], root: Hashable) -> Dict[Hashable, Hashable]:
    """Label each top-level subtree under ``root`` as one region.

    The root joins the region of its first child's subtree (string order) so
    every broker has a region; a single-broker tree is its own region 0.
    Regions are contiguous in the overlay, which is what makes them the unit
    of subtree-level netsplits.
    """
    children: Dict[Hashable, List[Hashable]] = {}
    for parent, child in overlay:
        children.setdefault(parent, []).append(child)
        children.setdefault(child, []).append(parent)
    regions: Dict[Hashable, Hashable] = {root: 0}
    for index, top in enumerate(sorted(children.get(root, ()), key=str)):
        stack = [top]
        regions[top] = index
        while stack:
            node = stack.pop()
            for neighbor in children.get(node, ()):
                if neighbor not in regions:
                    regions[neighbor] = index
                    stack.append(neighbor)
    return regions


def skewed_tree_topology(
    num_brokers: int, skew: float = 0.0, seed: Optional[int] = 0
) -> Topology:
    """A random recursive tree with configurable fan-out skew.

    Broker ``i`` attaches to an earlier broker drawn with weight
    ``(children + 1) ** skew``: ``skew=0`` is the uniform random recursive
    tree (depth ~ ``log n``), positive skews concentrate fan-out on existing
    hubs (star-like cores), and negative skews spread attachment away from
    busy brokers (chain-like depth).  Underlay and overlay coincide — the
    generated graph is already the routing tree.
    """
    if num_brokers <= 0:
        raise ValueError(f"num_brokers must be positive, got {num_brokers}")
    rng = random.Random(seed)
    edges: List[Edge] = []
    children = [0] * num_brokers
    for child in range(1, num_brokers):
        weights = [(children[p] + 1) ** skew for p in range(child)]
        parent = rng.choices(range(child), weights=weights, k=1)[0]
        children[parent] += 1
        edges.append((parent, child))
    overlay = tuple(edges)
    return Topology(
        name=f"skewed-tree(n={num_brokers},skew={skew:g})",
        underlay=overlay,
        overlay=overlay,
        regions=_subtree_regions(overlay, 0) if num_brokers > 1 else {0: 0},
    )


def scale_free_topology(
    num_brokers: int, attach: int = 2, seed: Optional[int] = 0
) -> Topology:
    """A Barabási–Albert scale-free underlay with a derived routing overlay.

    Each new broker attaches to ``attach`` distinct existing brokers chosen
    preferentially by degree (the classic repeated-endpoint urn), producing
    the heavy-tailed degree distribution of internet AS graphs.  The cyclic
    underlay is kept for metadata; the acyclic overlay is the seeded
    :func:`spanning_tree_overlay`, and regions are its top-level subtrees.
    """
    if num_brokers <= 0:
        raise ValueError(f"num_brokers must be positive, got {num_brokers}")
    if attach < 1:
        raise ValueError(f"attach must be at least 1, got {attach}")
    rng = random.Random(seed)
    edges: List[Edge] = []
    # Seed clique: the first attach+1 brokers are fully connected, giving the
    # urn a non-degenerate start.
    core = min(attach + 1, num_brokers)
    urn: List[int] = []
    for a in range(core):
        for b in range(a + 1, core):
            edges.append((a, b))
            urn.extend((a, b))
    if not urn:
        urn = [0]
    for new in range(core, num_brokers):
        targets: Set[int] = set()
        while len(targets) < min(attach, new):
            targets.add(rng.choice(urn))
        for target in sorted(targets):
            edges.append((target, new))
            urn.extend((target, new))
    underlay = tuple(edges)
    overlay = tuple(spanning_tree_overlay(underlay, seed=seed))
    return Topology(
        name=f"scale-free(n={num_brokers},m={attach})",
        underlay=underlay,
        overlay=overlay,
        regions=_subtree_regions(overlay, 0) if num_brokers > 1 else {0: 0},
    )


def grid_cluster_topology(
    grid_rows: int,
    grid_cols: int,
    cluster_size: int,
    seed: Optional[int] = 0,
) -> Topology:
    """A cluster-of-clusters WAN: LAN clusters on a grid, WAN gateway links.

    Each grid cell is one cluster of ``cluster_size`` brokers wired as a ring
    plus, from four brokers up, one seeded random chord (a redundant LAN).  Adjacent
    grid cells are joined by one WAN link between seeded gateway brokers.
    Regions are the clusters, so :meth:`Topology.latency_model` prices
    intra-cluster links at LAN and gateway links at WAN delay.  The underlay
    is cyclic by construction; the overlay is the seeded spanning tree.
    """
    if grid_rows <= 0 or grid_cols <= 0:
        raise ValueError(f"grid must be non-empty, got {grid_rows}x{grid_cols}")
    if cluster_size <= 0:
        raise ValueError(f"cluster_size must be positive, got {cluster_size}")
    rng = random.Random(seed)
    edges: List[Edge] = []
    regions: Dict[Hashable, Hashable] = {}

    def broker(cluster: int, slot: int) -> int:
        return cluster * cluster_size + slot

    num_clusters = grid_rows * grid_cols
    for cluster in range(num_clusters):
        members = [broker(cluster, slot) for slot in range(cluster_size)]
        for member in members:
            regions[member] = cluster
        for i, member in enumerate(members[:-1]):
            edges.append((member, members[i + 1]))
        if cluster_size > 2:
            edges.append((members[-1], members[0]))
        if cluster_size > 3:
            a, b = rng.sample(members, 2)
            if (a, b) not in edges and (b, a) not in edges:
                edges.append((min(a, b), max(a, b)))
    for row in range(grid_rows):
        for col in range(grid_cols):
            cluster = row * grid_cols + col
            for d_row, d_col in ((0, 1), (1, 0)):
                n_row, n_col = row + d_row, col + d_col
                if n_row >= grid_rows or n_col >= grid_cols:
                    continue
                neighbor = n_row * grid_cols + n_col
                edges.append(
                    (
                        broker(cluster, rng.randrange(cluster_size)),
                        broker(neighbor, rng.randrange(cluster_size)),
                    )
                )
    underlay = tuple(edges)
    overlay = tuple(spanning_tree_overlay(underlay, seed=seed))
    return Topology(
        name=f"grid-cluster({grid_rows}x{grid_cols}x{cluster_size})",
        underlay=underlay,
        overlay=overlay,
        regions=regions,
    )


#: Topology classes by name, for sweep drivers and the CLI.
TOPOLOGY_CLASSES = ("skewed-tree", "scale-free", "grid-cluster")


def make_topology(kind: str, num_brokers: int, seed: Optional[int] = 0) -> Topology:
    """Build a topology class by name at roughly ``num_brokers`` scale.

    ``skewed-tree`` and ``scale-free`` hit ``num_brokers`` exactly;
    ``grid-cluster`` rounds to the nearest grid of 8-broker clusters (at
    least 2×2), so sweeps stay comparable across classes without every caller
    re-deriving grid arithmetic.
    """
    if kind == "skewed-tree":
        return skewed_tree_topology(num_brokers, skew=1.5, seed=seed)
    if kind == "scale-free":
        return scale_free_topology(num_brokers, attach=2, seed=seed)
    if kind == "grid-cluster":
        cluster_size = 8
        cells = max(4, round(num_brokers / cluster_size))
        rows = max(2, int(cells**0.5))
        cols = max(2, (cells + rows - 1) // rows)
        return grid_cluster_topology(rows, cols, cluster_size, seed=seed)
    raise ValueError(
        f"unknown topology class {kind!r}; expected one of {TOPOLOGY_CLASSES}"
    )
