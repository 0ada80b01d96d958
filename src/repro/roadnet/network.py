"""The road network graph: nodes, polyline edges, routing and spatial queries.

Routing runs the network's own Dijkstra over an adjacency snapshot rather
than networkx's. Its heap entries, sums and comparisons are those of
networkx 3.6.1 (``_dijkstra_multisource`` and ``bidirectional_dijkstra``),
so every length and every path, ties included, is the one networkx
returns; what changes is the cost. A full run from a source also answers
every later ``shortest_path_length`` from it: up to the target, it pops
the same sequence as networkx's run that stops there, so the distance is
the same float. Full tables are memoised per source, first in first out,
at most :data:`ROUTE_MEMO_ENTRIES` entries in all.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Hashable, Iterator, Optional, Sequence

import networkx as nx

from repro.errors import EmptyInputError
from repro.geo import BoundingBox, Point, interpolate

NodeId = Hashable

Adjacency = dict[NodeId, tuple[tuple[NodeId, float], ...]]
"""``node -> ((neighbour, length), ...)`` in ``graph.adj`` order."""

ROUTE_MEMO_ENTRIES = 65_536
"""Distances one network memoises before dropping its oldest source's table
(~4 MB; a ``make_porto_like`` city's full set is 177 sources, ~31 k entries)."""


@dataclass(frozen=True)
class EdgeRef:
    """A directed traversal of one undirected edge ``(u, v)``."""

    u: NodeId
    v: NodeId

    def reversed(self) -> "EdgeRef":
        return EdgeRef(self.v, self.u)

    def key(self) -> tuple[NodeId, NodeId]:
        """Canonical undirected key (sorted endpoints by repr)."""
        a, b = sorted((self.u, self.v), key=repr)
        return (a, b)


@dataclass(frozen=True)
class EdgePosition:
    """A position on the network: an edge plus meters from its ``u`` end."""

    edge: EdgeRef
    offset_m: float
    point: Point
    distance_m: float
    """Distance from the query point that produced this projection."""


def _polyline_length(points: Sequence[Point]) -> float:
    return sum(a.distance_to(b) for a, b in zip(points, points[1:]))


def _project_to_segment(p: Point, a: Point, b: Point) -> tuple[Point, float, float]:
    """Project ``p`` onto segment ``ab``.

    Returns ``(foot, along, dist)``: the closest point on the segment, its
    distance from ``a`` along the segment, and its distance from ``p``.
    """
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return a, 0.0, p.distance_to(a)
    t = max(0.0, min(1.0, ((p.x - ax) * dx + (p.y - ay) * dy) / seg2))
    foot = Point(ax + t * dx, ay + t * dy)
    return foot, t * math.sqrt(seg2), p.distance_to(foot)


def _dijkstra(adj: Adjacency, source: NodeId, cutoff: Optional[float] = None) -> dict:
    """Lengths from ``source``, in settling order: networkx's single-source run.

    The heap holds ``(dist, counter, node)``, a neighbour's tentative
    distance is ``dist + length``, and it is pushed only when strictly
    shorter than the best seen so far, exactly as in networkx 3.6.1's
    ``_dijkstra_multisource``. networkx also skips neighbours already
    settled; with non-negative lengths that test never passes where the
    strict ``<`` would, so it is left out.
    """
    inf = math.inf
    limit = inf if cutoff is None else cutoff
    dist: dict = {}
    seen: dict = {source: 0}
    best = seen.get
    fringe: list = [(0, 0, source)]
    ticket = count(1).__next__
    while fringe:
        d, _, v = heappop(fringe)
        if v in dist:
            continue
        dist[v] = d
        for u, length in adj[v]:
            du = d + length
            if du <= limit and du < best(u, inf):
                seen[u] = du
                heappush(fringe, (du, ticket(), u))
    return dist


def _bidirectional_dijkstra(adj: Adjacency, source: NodeId, target: NodeId) -> list:
    """The node path networkx 3.6.1's ``bidirectional_dijkstra`` returns.

    Directions alternate one pop at a time, starting forward, and share one
    push counter; every push that reaches a node the other side has seen
    offers a meeting node, kept when strictly shorter; the search stops when
    a node settles on both sides. Raises :class:`networkx.NetworkXNoPath`.
    """
    if source == target:
        return [source]
    dists: list[dict] = [{}, {}]
    preds: list[dict] = [{source: None}, {target: None}]
    seen: list[dict] = [{source: 0}, {target: 0}]
    fringe: list[list] = [[(0, 0, source)], [(0, 1, target)]]
    ticket = count(2).__next__
    inf = finaldist = math.inf
    meetnode = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        settled = dists[direction]
        if v in settled:
            continue
        settled[v] = dist
        if v in dists[1 - direction]:
            forward: list = []
            node = meetnode
            while node is not None:
                forward.append(node)
                node = preds[0][node]
            forward.reverse()
            node = preds[1][meetnode]
            while node is not None:
                forward.append(node)
                node = preds[1][node]
            return forward
        here_seen, there_seen = seen[direction], seen[1 - direction]
        here_fringe, here_preds = fringe[direction], preds[direction]
        for w, length in adj[v]:
            vw = dist + length
            if vw < here_seen.get(w, inf):
                here_seen[w] = vw
                heappush(here_fringe, (vw, ticket(), w))
                here_preds[w] = v
                other = there_seen.get(w)
                if other is not None and vw + other < finaldist:
                    finaldist, meetnode = vw + other, w
    raise nx.NetworkXNoPath(f"No path between {source} and {target}.")


class RoadNetwork:
    """An undirected road graph with polyline edge geometry.

    Nodes are arbitrary hashable identifiers with planar coordinates; every
    edge carries a geometry polyline (oriented from its ``u`` to its ``v``
    node) and a precomputed length used as the shortest-path weight.

    Routing reads a snapshot of the adjacency, taken at the first query
    after the last :meth:`add_node` / :meth:`add_edge` (which drop it and
    the distance memo). Mutate the network through those two methods: a
    change made through :attr:`graph` after a query is not seen by routing.
    """

    def __init__(self, index_cell_m: float = 100.0) -> None:
        self._graph = nx.Graph()
        self._index_cell_m = index_cell_m
        self._edge_index: Optional[dict[tuple[int, int], list[tuple[NodeId, NodeId]]]] = None
        self._adjacency: Optional[Adjacency] = None
        self._distances: dict[NodeId, dict] = {}
        self._distance_entries = 0

    # -- construction ------------------------------------------------------

    def add_node(self, node: NodeId, point: Point) -> None:
        self._graph.add_node(node, point=point)
        self._drop_routing()

    def add_edge(
        self, u: NodeId, v: NodeId, geometry: Optional[Sequence[Point]] = None
    ) -> None:
        """Add an undirected edge; geometry defaults to the straight segment.

        The supplied geometry must run from ``u`` to ``v``.
        """
        pu, pv = self.node_point(u), self.node_point(v)
        if geometry is None:
            geometry = (pu, pv)
        geometry = tuple(geometry)
        if geometry[0].distance_to(pu) > 1e-6 or geometry[-1].distance_to(pv) > 1e-6:
            raise ValueError(f"edge geometry does not connect nodes {u!r} and {v!r}")
        self._graph.add_edge(u, v, geometry=geometry, length=_polyline_length(geometry))
        self._edge_index = None  # invalidate spatial index
        self._drop_routing()

    def _drop_routing(self) -> None:
        self._adjacency = None
        self._distances = {}
        self._distance_entries = 0

    # -- basic accessors ---------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        return self._graph

    @property
    def num_nodes(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        return self._graph.number_of_edges()

    def nodes(self) -> Iterator[NodeId]:
        return iter(self._graph.nodes)

    def node_point(self, node: NodeId) -> Point:
        try:
            return self._graph.nodes[node]["point"]
        except KeyError as exc:
            raise KeyError(f"unknown node {node!r}") from exc

    def edge_geometry(self, u: NodeId, v: NodeId) -> tuple[Point, ...]:
        """Geometry of edge ``(u, v)`` oriented from ``u`` to ``v``."""
        data = self._graph.edges[u, v]
        geom: tuple[Point, ...] = data["geometry"]
        # Stored geometry is oriented from the lower endpoint at insert
        # time; flip when traversing the other way.
        if geom[0].distance_to(self.node_point(u)) <= 1e-6:
            return geom
        return tuple(reversed(geom))

    def edge_length(self, u: NodeId, v: NodeId) -> float:
        return self._graph.edges[u, v]["length"]

    def total_length(self) -> float:
        """Summed length of all edges in meters."""
        return sum(d["length"] for _, _, d in self._graph.edges(data=True))

    def bbox(self) -> BoundingBox:
        if self.num_nodes == 0:
            raise EmptyInputError("network has no nodes")
        return BoundingBox.from_points(
            self.node_point(n) for n in self._graph.nodes
        )

    # -- routing -----------------------------------------------------------

    def _routing_adjacency(self) -> Adjacency:
        if self._adjacency is None:
            self._adjacency = {
                v: tuple((u, data["length"]) for u, data in nbrs.items())
                for v, nbrs in self._graph.adj.items()
            }
        return self._adjacency

    def shortest_path(self, source: NodeId, target: NodeId) -> list[NodeId]:
        """Node sequence of the length-weighted shortest path.

        The path ``nx.shortest_path(graph, source, target, weight="length")``
        returns, ties included; raises the same ``nx.NodeNotFound`` and
        ``nx.NetworkXNoPath``.
        """
        adj = self._routing_adjacency()
        if source not in adj:
            raise nx.NodeNotFound(f"Source {source} is not in G")
        if target not in adj:
            raise nx.NodeNotFound(f"Target {target} is not in G")
        return _bidirectional_dijkstra(adj, source, target)

    def shortest_path_length(self, source: NodeId, target: NodeId) -> float:
        """Length of the shortest path, read off ``source``'s memoised table.

        Equal to ``nx.shortest_path_length(graph, source, target,
        weight="length")``: ``nx.NodeNotFound`` for an unknown source,
        ``nx.NetworkXNoPath`` for an unknown or unreachable target.
        """
        try:
            return self._lengths_from(source)[target]
        except KeyError:
            raise nx.NetworkXNoPath(
                f"Node {target} not reachable from {source}"
            ) from None

    def _lengths_from(self, source: NodeId) -> dict:
        """``source``'s full length table, from the memo or a fresh run."""
        lengths = self._distances.get(source)
        if lengths is None:
            lengths = self.single_source_lengths(source)
            if len(lengths) <= ROUTE_MEMO_ENTRIES:
                memo = self._distances
                self._distance_entries += len(lengths)
                while self._distance_entries > ROUTE_MEMO_ENTRIES:
                    self._distance_entries -= len(memo.pop(next(iter(memo))))
                memo[source] = lengths
        return lengths

    def single_source_lengths(self, source: NodeId, cutoff: Optional[float] = None) -> dict:
        """Dijkstra lengths from ``source`` to every reachable node.

        Equal to ``nx.single_source_dijkstra_path_length(graph, source,
        cutoff, weight="length")``, in the same order.
        """
        adj = self._routing_adjacency()
        if source not in adj:
            raise nx.NodeNotFound(f"Node {source} not found in graph")
        return _dijkstra(adj, source, cutoff)

    def path_geometry(self, path: Sequence[NodeId]) -> list[Point]:
        """Concatenate edge geometries along a node path (deduplicated)."""
        if len(path) < 2:
            return [self.node_point(path[0])] if path else []
        out: list[Point] = []
        for u, v in zip(path, path[1:]):
            geom = self.edge_geometry(u, v)
            if out:
                geom = geom[1:]
            out.extend(geom)
        return out

    def largest_component(self) -> "RoadNetwork":
        """A copy containing only the largest connected component."""
        if self.num_nodes == 0:
            return self
        keep = max(nx.connected_components(self._graph), key=len)
        sub = RoadNetwork(self._index_cell_m)
        # Sort for determinism: set iteration order depends on the
        # per-process hash seed, and node order drives trip sampling.
        for n in sorted(keep, key=repr):
            sub.add_node(n, self.node_point(n))
        for u, v, data in self._graph.edges(data=True):
            if u in keep and v in keep:
                sub._graph.add_edge(u, v, **data)
        return sub

    # -- spatial queries ----------------------------------------------------

    def _build_edge_index(self) -> dict[tuple[int, int], list[tuple[NodeId, NodeId]]]:
        index: dict[tuple[int, int], list[tuple[NodeId, NodeId]]] = defaultdict(list)
        cell = self._index_cell_m
        for u, v, data in self._graph.edges(data=True):
            geom: Sequence[Point] = data["geometry"]
            seen: set[tuple[int, int]] = set()
            for a, b in zip(geom, geom[1:]):
                steps = max(1, int(a.distance_to(b) / cell) + 1)
                for k in range(steps + 1):
                    p = interpolate(a, b, k / steps)
                    key = (math.floor(p.x / cell), math.floor(p.y / cell))
                    if key not in seen:
                        seen.add(key)
                        index[key].append((u, v))
        return dict(index)

    def _candidate_edges(self, p: Point, radius: float) -> set[tuple[NodeId, NodeId]]:
        if self._edge_index is None:
            self._edge_index = self._build_edge_index()
        cell = self._index_cell_m
        reach = max(1, int(math.ceil(radius / cell)))
        ci, cj = math.floor(p.x / cell), math.floor(p.y / cell)
        out: set[tuple[NodeId, NodeId]] = set()
        for di in range(-reach, reach + 1):
            for dj in range(-reach, reach + 1):
                out.update(self._edge_index.get((ci + di, cj + dj), ()))
        return out

    def project(self, p: Point) -> Optional[EdgePosition]:
        """The closest network position to ``p`` within 250 m."""
        candidates = self.nearest_edges(p, limit=1)
        return candidates[0] if candidates else None

    def nearest_edges(
        self, p: Point, radius: float = 250.0, limit: int = 8
    ) -> list[EdgePosition]:
        """Up to ``limit`` distinct edge projections within ``radius``.

        Results are sorted by distance from ``p``; each edge appears once
        (its best projection). Used by the HMM map-matching baseline to
        enumerate candidate states.
        """
        best: dict[tuple[NodeId, NodeId], EdgePosition] = {}
        for u, v in self._candidate_edges(p, radius):
            geom = self.edge_geometry(u, v)
            walked = 0.0
            for a, b in zip(geom, geom[1:]):
                foot, along, dist = _project_to_segment(p, a, b)
                if dist <= radius:
                    pos = EdgePosition(EdgeRef(u, v), walked + along, foot, dist)
                    key = EdgeRef(u, v).key()
                    if key not in best or dist < best[key].distance_m:
                        best[key] = pos
                walked += a.distance_to(b)
        ranked = sorted(best.values(), key=lambda e: e.distance_m)
        return ranked[:limit]

    def __repr__(self) -> str:
        return f"RoadNetwork(nodes={self.num_nodes}, edges={self.num_edges})"
