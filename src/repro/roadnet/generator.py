"""Procedural city road-network generation.

Builds a synthetic city with the road features the paper's analysis leans
on (Section 5's constraint examples and Section 8.4's road-type study):

* a jittered grid of arterial streets (straight segments),
* curved roads (quadratic-Bezier bulges replacing some straight edges),
* roundabouts replacing selected intersections,
* diagonal avenues whose polylines cross other roads without sharing a
  node — the planar-graph analogue of an overpass.

Generation is fully deterministic for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.geo import Point
from repro.roadnet.network import RoadNetwork

JITTER_M = 30.0
"""Random displacement applied to every grid intersection."""
REMOVAL_FRACTION = 0.12
"""Fraction of grid edges randomly removed (creates irregular blocks)."""
CURVE_BULGE = 0.35
"""Bezier control-point offset as a fraction of edge length."""
ROUNDABOUT_RADIUS_M = 25.0
N_DIAGONALS = 2
"""Diagonal avenues crossing the grid (overpass-style, no shared nodes)."""


@dataclass(frozen=True)
class CityConfig:
    """Parameters of the synthetic city.

    The defaults produce a ~3 km x 3 km city, small enough for tests and
    large enough that the paper's scaled sparseness sweep (250–2000 m gaps)
    is meaningful. ``repro.roadnet.datasets`` scales these per dataset.
    """

    width_m: float = 3000.0
    height_m: float = 3000.0
    block_m: float = 250.0
    """Spacing between arterial streets."""
    curved_fraction: float = 0.25
    """Fraction of surviving edges replaced by curved geometry."""
    n_roundabouts: int = 3
    seed: int = 7

    def __post_init__(self) -> None:
        if self.width_m <= 0 or self.height_m <= 0:
            raise ConfigError("city extent must be positive")
        if self.block_m <= 0 or self.block_m > min(self.width_m, self.height_m):
            raise ConfigError(f"block_m out of range: {self.block_m!r}")
        if not 0.0 <= self.curved_fraction <= 1.0:
            raise ConfigError("curved_fraction must be in [0, 1]")


def _bezier(a: Point, c: Point, b: Point, n: int) -> list[Point]:
    """Sample a quadratic Bezier curve from ``a`` to ``b`` via control ``c``."""
    out = []
    for k in range(n + 1):
        t = k / n
        x = (1 - t) ** 2 * a.x + 2 * (1 - t) * t * c.x + t**2 * b.x
        y = (1 - t) ** 2 * a.y + 2 * (1 - t) * t * c.y + t**2 * b.y
        out.append(Point(x, y))
    return out


def _curved_geometry(a: Point, b: Point, bulge: float, rng: np.random.Generator) -> list[Point]:
    """Bulged edge geometry: a Bezier arc bowing to one side."""
    mid = a.midpoint(b)
    length = a.distance_to(b)
    angle = a.bearing_to(b) + math.pi / 2.0 * (1 if rng.random() < 0.5 else -1)
    control = Point(
        mid.x + bulge * length * math.cos(angle),
        mid.y + bulge * length * math.sin(angle),
    )
    samples = max(4, int(length / 25.0))
    geom = _bezier(a, control, b, samples)
    geom[0], geom[-1] = a, b  # pin endpoints exactly
    return geom


def generate_city(config: CityConfig | None = None) -> RoadNetwork:
    """Generate a synthetic city road network per ``config``."""
    cfg = config or CityConfig()
    rng = np.random.default_rng(cfg.seed)
    net = RoadNetwork()

    cols = int(cfg.width_m / cfg.block_m) + 1
    rows = int(cfg.height_m / cfg.block_m) + 1
    if cols < 3 or rows < 3:
        raise ConfigError("city too small for its block size (need >= 3x3 grid)")

    # 1. Jittered grid intersections.
    coords: dict[tuple[int, int], Point] = {}
    for i in range(cols):
        for j in range(rows):
            jx, jy = rng.normal(0.0, JITTER_M, size=2)
            coords[(i, j)] = Point(i * cfg.block_m + jx, j * cfg.block_m + jy)
            net.add_node(("g", i, j), coords[(i, j)])

    # 2. Grid edges with random removals.
    grid_edges: list[tuple[tuple, tuple]] = []
    for i in range(cols):
        for j in range(rows):
            if i + 1 < cols:
                grid_edges.append((("g", i, j), ("g", i + 1, j)))
            if j + 1 < rows:
                grid_edges.append((("g", i, j), ("g", i, j + 1)))
    removable = rng.permutation(len(grid_edges))
    n_remove = int(REMOVAL_FRACTION * len(grid_edges))
    removed = set(int(k) for k in removable[:n_remove])
    kept = [e for k, e in enumerate(grid_edges) if k not in removed]

    # 3. Curved geometry on a random subset of kept edges.
    curved_mask = rng.random(len(kept)) < cfg.curved_fraction
    for (u, v), curved in zip(kept, curved_mask):
        a, b = net.node_point(u), net.node_point(v)
        if curved:
            net.add_edge(u, v, _curved_geometry(a, b, CURVE_BULGE, rng))
        else:
            net.add_edge(u, v)

    # 4. Roundabouts: replace interior intersections by a ring of nodes.
    interior = [
        (i, j) for i in range(1, cols - 1) for j in range(1, rows - 1)
    ]
    rng.shuffle(interior)
    made = 0
    for i, j in interior:
        if made >= cfg.n_roundabouts:
            break
        node = ("g", i, j)
        if node not in net.graph or net.graph.degree(node) < 3:
            continue
        made += 1
        center = net.node_point(node)
        neighbours = list(net.graph.neighbors(node))
        # Ring nodes placed toward each neighbour, connected in a cycle.
        ring: list[tuple] = []
        for k, nb in enumerate(neighbours):
            angle = center.bearing_to(net.node_point(nb))
            rp = Point(
                center.x + ROUNDABOUT_RADIUS_M * math.cos(angle),
                center.y + ROUNDABOUT_RADIUS_M * math.sin(angle),
            )
            rid = ("r", i, j, k)
            net.add_node(rid, rp)
            ring.append(rid)
        # Reconnect each neighbour to its ring node, preserving curvature
        # is unnecessary at this 25 m scale: straight stubs suffice.
        for rid, nb in zip(ring, neighbours):
            net.graph.remove_edge(node, nb)
            net.add_edge(rid, nb)
        # Close the ring with short arcs (ordered by angle around center).
        ring_sorted = sorted(
            ring, key=lambda r: center.bearing_to(net.node_point(r))
        )
        for a_id, b_id in zip(ring_sorted, ring_sorted[1:] + ring_sorted[:1]):
            pa, pb = net.node_point(a_id), net.node_point(b_id)
            if pa.distance_to(pb) < 1e-6:
                continue
            mid_angle = math.atan2(
                (pa.y + pb.y) / 2.0 - center.y, (pa.x + pb.x) / 2.0 - center.x
            )
            arc_mid = Point(
                center.x + ROUNDABOUT_RADIUS_M * 1.15 * math.cos(mid_angle),
                center.y + ROUNDABOUT_RADIUS_M * 1.15 * math.sin(mid_angle),
            )
            net.add_edge(a_id, b_id, _bezier(pa, arc_mid, pb, 4))
        net.graph.remove_node(node)

    # 5. Diagonal avenues: long edges whose geometry crosses the grid
    #    without intersecting it (overpass-style).
    for d in range(N_DIAGONALS):
        if d % 2 == 0:
            u, v = ("g", 0, 0), ("g", cols - 1, rows - 1)
        else:
            u, v = ("g", 0, rows - 1), ("g", cols - 1, 0)
        if u in net.graph and v in net.graph and not net.graph.has_edge(u, v):
            a, b = net.node_point(u), net.node_point(v)
            net.add_edge(u, v, _curved_geometry(a, b, 0.08, rng))

    return net.largest_component()
