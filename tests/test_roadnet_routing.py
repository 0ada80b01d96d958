"""RoadNetwork's own routing against networkx, the reference.

``shortest_path``, ``shortest_path_length`` and ``single_source_lengths``
replicate networkx's weighted Dijkstra, tie-breaks included: each answer
must be ``==`` to networkx's (paths as lists, lengths as floats, length
tables as ordered items). The reference ran on networkx 3.6.1, whose
``_dijkstra_multisource`` and ``bidirectional_dijkstra`` the replicas
follow. The square grid has equal edge lengths, so almost every pair has
several shortest paths and only the tie-breaks decide between them.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo import Point
from repro.roadnet import network as network_module
from repro.roadnet.generator import CityConfig, generate_city
from repro.roadnet.network import RoadNetwork
from repro.roadnet.simulator import SimulatorConfig, TrajectorySimulator


def reference(call, *args, **kwargs):
    """``call``'s answer, or the type of the networkx error it raised."""
    try:
        return call(*args, **kwargs)
    except (nx.NodeNotFound, nx.NetworkXNoPath) as exc:
        return type(exc)


def nx_path(net, s, t):
    return reference(nx.shortest_path, net.graph, s, t, weight="length")


def nx_length(net, s, t):
    return reference(nx.shortest_path_length, net.graph, s, t, weight="length")


def nx_lengths(net, s, cutoff=None):
    return list(
        nx.single_source_dijkstra_path_length(net.graph, s, cutoff=cutoff, weight="length").items()
    )


def assert_pair_matches(net, s, t):
    path = reference(net.shortest_path, s, t)
    assert path == nx_path(net, s, t), (s, t)
    length = reference(net.shortest_path_length, s, t)
    expected = nx_length(net, s, t)
    assert length == expected and type(length) is type(expected), (s, t)


def assert_source_matches(net, s, cutoffs):
    for cutoff in cutoffs:
        assert list(net.single_source_lengths(s, cutoff).items()) == nx_lengths(net, s, cutoff)


@pytest.fixture(scope="module")
def small_city() -> RoadNetwork:
    """Curved edges, two roundabouts and both diagonals on a 7 x 7 grid."""
    net = generate_city(CityConfig(width_m=1500.0, height_m=1500.0, n_roundabouts=2, seed=3))
    assert any(node[0] == "r" for node in net.nodes())
    return net


@pytest.fixture(scope="module")
def square_grid() -> RoadNetwork:
    """A 6 x 6 grid of straight 100 m edges: ties everywhere."""
    net = RoadNetwork()
    for j in range(6):
        for i in range(6):
            net.add_node((i, j), Point(i * 100.0, j * 100.0))
    for j in range(6):
        for i in range(6):
            if i < 5:
                net.add_edge((i, j), (i + 1, j))
            if j < 5:
                net.add_edge((i, j), (i, j + 1))
    return net


@pytest.mark.parametrize("city", ["small_city", "square_grid"])
def test_every_ordered_pair_matches_networkx(city, request):
    net = request.getfixturevalue(city)
    nodes = list(net.nodes())
    for s in nodes:
        # 300 m is a grid distance: a node exactly at the cutoff is kept.
        assert_source_matches(net, s, (None, 300.0, 725.0))
        for t in nodes:
            assert_pair_matches(net, s, t)


def test_seeded_pairs_on_the_bulk_porto_city():
    net = generate_city(CityConfig(width_m=3000.0, height_m=3000.0, block_m=250.0, seed=7))
    nodes = list(net.nodes())
    assert len(nodes) == 177
    rng = np.random.default_rng(0)
    for _ in range(300):
        s, t = (nodes[int(i)] for i in rng.integers(len(nodes), size=2))
        assert_pair_matches(net, s, t)
    for i in rng.integers(len(nodes), size=10):
        assert_source_matches(net, nodes[int(i)], (None, 1000.0))


def detour_network(n_nodes, edges):
    """All nodes at one point; each edge a there-and-back detour whose
    polyline length is exactly the requested length."""
    net = RoadNetwork()
    origin = Point(0.0, 0.0)
    for node in range(n_nodes):
        net.add_node(node, origin)
    for u, v, length in edges:
        net.add_edge(u, v, (origin, Point(length / 2, 0.0), origin))
    return net


@st.composite
def small_graphs(draw):
    n_nodes = draw(st.integers(2, 8))
    lengths = draw(st.sampled_from([(1.0, 2.0), (1.0, 2.0, 3.0), (0.1, 0.2, 0.3), (2.5, 5.0)]))
    node = st.integers(0, n_nodes - 1)
    edges = draw(st.lists(
        st.tuples(node, node, st.sampled_from(lengths)).filter(lambda e: e[0] != e[1]),
        max_size=3 * n_nodes,
    ))
    return n_nodes, edges, lengths


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_random_small_graphs_match_networkx(graph):
    n_nodes, edges, lengths = graph
    net = detour_network(n_nodes, edges)
    if edges:  # the last edge added between two nodes is the one kept
        u, v, length = edges[-1]
        assert net.edge_length(u, v) == length
    for s in range(n_nodes):
        assert_source_matches(net, s, (None, lengths[0], 2 * lengths[-1]))
        for t in range(n_nodes):
            assert_pair_matches(net, s, t)


class TestSnapshotAndMemo:
    @pytest.fixture()
    def net(self) -> RoadNetwork:
        r"""The 3 x 3 grid of 100 m blocks::

            6 -- 7 -- 8
            |    |    |
            3 -- 4 -- 5
            |    |    |
            0 -- 1 -- 2
        """
        net = RoadNetwork()
        for j in range(3):
            for i in range(3):
                net.add_node(3 * j + i, Point(i * 100.0, j * 100.0))
        for j in range(3):
            for i in range(3):
                n = 3 * j + i
                if i < 2:
                    net.add_edge(n, n + 1)
                if j < 2:
                    net.add_edge(n, n + 3)
        return net

    def test_an_edge_added_after_a_query_is_routed_on(self, net):
        assert net.shortest_path_length(0, 8) == pytest.approx(400.0)
        assert net.single_source_lengths(0)[8] == pytest.approx(400.0)
        net.add_edge(0, 8)
        assert net.shortest_path_length(0, 8) == pytest.approx(200.0 * 2**0.5)
        assert net.shortest_path(0, 8) == [0, 8]
        assert net.single_source_lengths(0)[8] == pytest.approx(200.0 * 2**0.5)
        for s in net.nodes():
            for t in net.nodes():
                assert_pair_matches(net, s, t)

    def test_a_node_added_after_a_query_is_known(self, net):
        net.shortest_path_length(0, 8)
        with pytest.raises(nx.NodeNotFound):
            net.shortest_path(0, 9)
        net.add_node(9, Point(300.0, 0.0))
        with pytest.raises(nx.NetworkXNoPath):
            net.shortest_path(0, 9)
        net.add_edge(2, 9)
        assert net.shortest_path(0, 9) == [0, 1, 2, 9]
        assert net.shortest_path_length(0, 9) == pytest.approx(300.0)

    def test_a_full_memo_evicts_its_oldest_source(self, net, monkeypatch):
        monkeypatch.setattr(network_module, "ROUTE_MEMO_ENTRIES", 2 * net.num_nodes)
        for source in (0, 4, 8):
            assert_pair_matches(net, source, 5)
        assert list(net._distances) == [4, 8]
        assert net._distance_entries == 2 * net.num_nodes
        for source in (0, 4, 8, 0):
            assert_pair_matches(net, source, 3)
        assert list(net._distances) == [8, 0]

    def test_a_table_larger_than_the_memo_is_not_kept(self, net, monkeypatch):
        monkeypatch.setattr(network_module, "ROUTE_MEMO_ENTRIES", net.num_nodes - 1)
        assert_pair_matches(net, 0, 8)
        assert net._distances == {} and net._distance_entries == 0

    def test_unknown_nodes_raise_node_not_found(self, net):
        for call in (net.shortest_path, net.shortest_path_length):
            with pytest.raises(nx.NodeNotFound):
                call("missing", 0)
        with pytest.raises(nx.NodeNotFound):
            net.shortest_path(0, "missing")
        with pytest.raises(nx.NodeNotFound):
            net.single_source_lengths("missing")
        # networkx reports an unknown target of a length query as unreachable.
        with pytest.raises(nx.NetworkXNoPath):
            net.shortest_path_length(0, "missing")

    def test_disconnected_pairs_raise_no_path(self, net):
        net.add_node("a", Point(1000.0, 0.0))
        net.add_node("b", Point(1100.0, 0.0))
        net.add_edge("a", "b")
        for s, t in ((0, "a"), ("b", 8)):
            with pytest.raises(nx.NetworkXNoPath):
                net.shortest_path(s, t)
            with pytest.raises(nx.NetworkXNoPath):
                net.shortest_path_length(s, t)
            assert t not in net.single_source_lengths(s)
        # The simulator skips such a draw and samples another.
        sim = TrajectorySimulator(net, SimulatorConfig(min_trip_length_m=0.0, seed=3))
        assert len(sim.simulate(20)) == 20
