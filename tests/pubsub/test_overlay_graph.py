"""The overlay's adjacency map and its breadth-first search against networkx.

``BrokerNetwork.graph`` is a plain ``{broker: set of neighbours}`` map, and
one private search answers ``connect``'s cycle check, ``reachable_brokers``
and ``live_components``.  networkx is the oracle here (a test-only
dependency): on random ``from_topology`` trees, edge-less ``nodes=`` brokers
among them, under random crashes, recoveries and connects, every answer
equals what ``node_connected_component``, ``connected_components`` and
``has_path`` give, the components in the same order.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pubsub.network import BrokerNetwork
from repro.pubsub.schema import Attribute, AttributeSchema

SCHEMA = AttributeSchema([Attribute("x", 0.0, 100.0)], order=4)


@st.composite
def overlays(draw):
    """``(edges, nodes, ids)``: a random tree, its edges in random direction,
    plus edge-less brokers pre-created through ``nodes=`` (string ids, so
    components order by a mix of numbers and strings)."""
    size = draw(st.integers(1, 12))
    labels = draw(st.permutations(range(size)))
    edges = []
    for child in range(1, size):
        parent = draw(st.integers(0, child - 1))
        edge = (labels[parent], labels[child])
        edges.append(edge[::-1] if draw(st.booleans()) else edge)
    loners = [f"n{i}" for i in range(draw(st.integers(0, 3)))]
    # A one-broker tree has no edge to create its broker by.
    named = draw(st.lists(st.sampled_from(labels), max_size=3)) + labels[: size == 1]
    nodes = draw(st.permutations(loners + named))
    return edges, nodes, labels + loners


def oracle(edges, nodes):
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph


def assert_same_answers(network, graph):
    assert network.graph == {broker: set(graph[broker]) for broker in graph}
    live = network.live_brokers()
    view = graph.subgraph(live)
    for broker in graph:
        expected = nx.node_connected_component(view, broker) if broker in live else set()
        assert network.reachable_brokers(broker) == expected
    components = sorted(
        (set(component) for component in nx.connected_components(view)),
        key=lambda c: min(str(b) for b in c),
    )
    assert network.live_components() == components


@given(overlay=overlays(), data=st.data())
def test_the_adjacency_map_answers_as_networkx(overlay, data):
    edges, nodes, ids = overlay
    network = BrokerNetwork.from_topology(SCHEMA, edges, nodes=nodes)
    graph = oracle(edges, nodes)
    assert set(network.graph) == set(graph) == set(ids)
    assert_same_answers(network, graph)
    steps = data.draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("toggle"), st.sampled_from(ids)),
                st.tuples(st.just("connect"), st.sampled_from(ids), st.sampled_from(ids)),
            ),
            max_size=12,
        )
    )
    for step in steps:
        if step[0] == "toggle":
            broker = step[1]
            if network.transport.is_up(broker):
                network.crash_broker(broker)
            else:
                network.recover_broker(broker)
        else:
            _, a, b = step
            before = {broker: set(neighbours) for broker, neighbours in network.graph.items()}
            if not graph.has_edge(a, b) and nx.has_path(graph, a, b):
                with pytest.raises(ValueError, match="would create a cycle"):
                    network.connect(a, b)
                assert network.graph == before
            else:
                network.connect(a, b)
                graph.add_edge(a, b)
        assert_same_answers(network, graph)
