"""Tests for the road-network graph and its spatial queries."""

import math

import pytest

from repro.errors import EmptyInputError
from repro.geo import Point
from repro.roadnet.network import EdgeRef, RoadNetwork, _project_to_segment


@pytest.fixture()
def square_net() -> RoadNetwork:
    r"""A 2x2 grid of 100 m blocks::

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


class TestConstruction:
    def test_counts(self, square_net):
        assert square_net.num_nodes == 9
        assert square_net.num_edges == 12

    def test_default_geometry_is_straight(self, square_net):
        geom = square_net.edge_geometry(0, 1)
        assert len(geom) == 2
        assert geom[0] == Point(0, 0) and geom[-1] == Point(100, 0)

    def test_geometry_oriented_by_endpoint(self, square_net):
        forward = square_net.edge_geometry(0, 1)
        backward = square_net.edge_geometry(1, 0)
        assert forward == tuple(reversed(backward))

    def test_custom_geometry_must_connect(self, square_net):
        with pytest.raises(ValueError):
            net = RoadNetwork()
            net.add_node("a", Point(0, 0))
            net.add_node("b", Point(100, 0))
            net.add_edge("a", "b", [Point(5, 5), Point(100, 0)])

    def test_edge_length_of_polyline(self):
        net = RoadNetwork()
        net.add_node("a", Point(0, 0))
        net.add_node("b", Point(100, 0))
        net.add_edge("a", "b", [Point(0, 0), Point(50, 50), Point(100, 0)])
        assert net.edge_length("a", "b") == pytest.approx(2 * math.hypot(50, 50))

    def test_unknown_node_raises(self, square_net):
        with pytest.raises(KeyError):
            square_net.node_point(99)

    def test_total_length(self, square_net):
        assert square_net.total_length() == pytest.approx(12 * 100.0)

    def test_bbox(self, square_net):
        b = square_net.bbox()
        assert (b.width, b.height) == (200.0, 200.0)

    def test_bbox_empty(self):
        with pytest.raises(EmptyInputError):
            RoadNetwork().bbox()


class TestRouting:
    def test_shortest_path_straight(self, square_net):
        assert square_net.shortest_path(0, 2) == [0, 1, 2]

    def test_shortest_path_length(self, square_net):
        assert square_net.shortest_path_length(0, 8) == pytest.approx(400.0)

    def test_path_geometry_dedupes_joints(self, square_net):
        geom = square_net.path_geometry([0, 1, 2])
        assert [(p.x, p.y) for p in geom] == [(0, 0), (100, 0), (200, 0)]

    def test_path_geometry_single_node(self, square_net):
        assert len(square_net.path_geometry([4])) == 1

    def test_single_source_lengths(self, square_net):
        lengths = square_net.single_source_lengths(0, cutoff=150.0)
        assert set(lengths) == {0, 1, 3}

    def test_largest_component(self):
        net = RoadNetwork()
        for n, p in [("a", Point(0, 0)), ("b", Point(100, 0)), ("z", Point(999, 999))]:
            net.add_node(n, p)
        net.add_edge("a", "b")
        main = net.largest_component()
        assert main.num_nodes == 2
        assert main.num_edges == 1


class TestSpatialQueries:
    def test_project_onto_edge(self, square_net):
        pos = square_net.project(Point(50.0, 10.0))
        assert pos is not None
        assert pos.distance_m == pytest.approx(10.0)
        assert pos.point.y == pytest.approx(0.0)
        assert pos.offset_m == pytest.approx(50.0)

    def test_project_out_of_radius(self, square_net):
        assert square_net.project(Point(5000.0, 5000.0)) is None

    def test_nearest_edges_sorted_and_unique(self, square_net):
        candidates = square_net.nearest_edges(Point(100.0, 50.0), radius=120.0)
        distances = [c.distance_m for c in candidates]
        assert distances == sorted(distances)
        keys = [c.edge.key() for c in candidates]
        assert len(keys) == len(set(keys))

    def test_nearest_edges_limit(self, square_net):
        assert len(square_net.nearest_edges(Point(100, 100), radius=300.0, limit=3)) == 3


class TestHelpers:
    def test_project_to_segment_interior(self):
        foot, along, dist = _project_to_segment(Point(5, 3), Point(0, 0), Point(10, 0))
        assert (foot.x, foot.y) == (5.0, 0.0)
        assert along == pytest.approx(5.0)
        assert dist == pytest.approx(3.0)

    def test_project_to_segment_clamps_to_endpoint(self):
        foot, along, dist = _project_to_segment(Point(-4, 3), Point(0, 0), Point(10, 0))
        assert (foot.x, foot.y) == (0.0, 0.0)
        assert along == 0.0
        assert dist == pytest.approx(5.0)

    def test_project_to_degenerate_segment(self):
        foot, along, dist = _project_to_segment(Point(1, 1), Point(0, 0), Point(0, 0))
        assert (foot.x, foot.y) == (0.0, 0.0)

    def test_edge_ref_key_canonical(self):
        assert EdgeRef("b", "a").key() == EdgeRef("a", "b").key()
        assert EdgeRef("a", "b").reversed() == EdgeRef("b", "a")
