"""Detokenization: tokens -> representative GPS points (paper Section 7).

Offline, the training points inside every grid cell are clustered with
DBSCAN using position *and* travel direction as features, so a cell
containing (say) a right turn yields one cluster per road direction
(Figure 8). Online, each imputed token is replaced by the centroid of the
cluster whose direction best matches the local travel direction; with one
cluster the data centroid is used, and with none the cell centroid — the
paper's three outcome cases.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.cluster import NOISE, dbscan_labels
from repro.core.tokenization import Tokenizer
from repro.geo import Point, Trajectory
from repro.geo.point import angle_difference
from repro.grid.base import Cell
from repro.obs import instrument as obs


@dataclass(frozen=True)
class DirectionalCluster:
    """One DBSCAN cluster inside a cell: where, and heading which way."""

    centroid: Point
    direction: float
    """Circular-mean travel direction (radians, math convention)."""
    size: int


@dataclass(frozen=True)
class CellClusters:
    """Per-cell detokenization metadata (the paper's token metadata)."""

    clusters: tuple[DirectionalCluster, ...] = field(default_factory=tuple)
    data_centroid: Optional[Point] = None
    num_points: int = 0


def _point_directions(trajectory: Trajectory) -> list[tuple[Point, float]]:
    """Each trajectory point paired with its local travel direction."""
    pts = trajectory.points
    out: list[tuple[Point, float]] = []
    n = len(pts)
    if n < 2:
        return out
    for i, p in enumerate(pts):
        if i == 0:
            ref_a, ref_b = pts[0], pts[1]
        elif i == n - 1:
            ref_a, ref_b = pts[n - 2], pts[n - 1]
        else:
            ref_a, ref_b = pts[i - 1], pts[i + 1]
        if ref_a.distance_to(ref_b) == 0.0:
            continue
        out.append((p, ref_a.bearing_to(ref_b)))
    return out


def _circular_mean(angles: np.ndarray) -> float:
    return float(math.atan2(np.sin(angles).mean(), np.cos(angles).mean()))


DBSCAN_MIN_SAMPLES = 4
"""DBSCAN ``min_samples``: a cell with fewer training points keeps only
its data centroid."""
DBSCAN_EPS_FRACTION = 0.35
"""DBSCAN epsilon as a fraction of the cell size (square root of its area)."""
DIRECTION_WEIGHT_M = 60.0
"""Radius of the circle a travel direction maps onto among the clustering
features, so points moving opposite ways on the same road separate."""


class Detokenizer:
    """Builds and applies the per-token cluster metadata."""

    def __init__(self, tokenizer: Tokenizer) -> None:
        self.tokenizer = tokenizer
        self._cells: dict[Cell, CellClusters] = {}

    # -- offline (training time) -------------------------------------------

    def fit(self, trajectories: Iterable[Trajectory]) -> "Detokenizer":
        """Cluster every cell's training points by position + direction."""
        per_cell: dict[Cell, list[tuple[float, float, float]]] = defaultdict(list)
        grid = self.tokenizer.grid
        for traj in trajectories:
            for p, direction in _point_directions(traj):
                per_cell[grid.cell_of(p)].append((p.x, p.y, direction))
        for cell, rows in per_cell.items():
            self._cells[cell] = self._cluster_cell(rows)
        return self

    def _cluster_cell(self, rows: list[tuple[float, float, float]]) -> CellClusters:
        xs = np.array([r[0] for r in rows])
        ys = np.array([r[1] for r in rows])
        dirs = np.array([r[2] for r in rows])
        data_centroid = Point(xs.mean(), ys.mean())
        if len(rows) < DBSCAN_MIN_SAMPLES:
            return CellClusters((), data_centroid, len(rows))

        # Feature space: meters for position; direction mapped onto a
        # circle of radius DIRECTION_WEIGHT_M so opposite headings on the
        # same road land far apart.
        w = DIRECTION_WEIGHT_M
        features = np.column_stack(
            [xs, ys, w * np.cos(dirs), w * np.sin(dirs)]
        )
        # Scale epsilon by the cell's *size* (sqrt of area), not its edge
        # length: hexagon and square grids of equal cell area then cluster
        # identically, keeping the Fig. 12-III comparison fair.
        eps = DBSCAN_EPS_FRACTION * math.sqrt(self.tokenizer.grid.cell_area_m2)
        labels = dbscan_labels(features, eps=eps, min_samples=DBSCAN_MIN_SAMPLES)

        clusters: list[DirectionalCluster] = []
        for label in sorted(set(labels) - {NOISE}):
            members = labels == label
            clusters.append(
                DirectionalCluster(
                    Point(xs[members].mean(), ys[members].mean()),
                    _circular_mean(dirs[members]),
                    int(members.sum()),
                )
            )
        return CellClusters(tuple(clusters), data_centroid, len(rows))

    @property
    def num_cells(self) -> int:
        return len(self._cells)

    def cell_info(self, cell: Cell) -> CellClusters:
        return self._cells.get(cell, CellClusters())

    # -- online (imputation time) ------------------------------------------------

    def point_for_token(
        self,
        token_id: int,
        incoming_from: Optional[Point],
        outgoing_to: Optional[Point],
    ) -> Point:
        """The representative point for one imputed token.

        The token direction angle is the average of the incoming angle
        (from the previous point toward this token) and the outgoing angle
        (from this token toward the next), per the paper's online
        procedure; the best-aligned cluster centroid wins.
        """
        cell = self.tokenizer.cell_of_token(token_id)
        hexagon_centroid = self.tokenizer.centroid_of_token(token_id)
        obs.count("repro.detokenization.tokens_total")
        info = self._cells.get(cell)
        if info is None or info.data_centroid is None:
            obs.count("repro.detokenization.mode.cell_centroid_total")
            return hexagon_centroid
        if not info.clusters:
            obs.count("repro.detokenization.mode.data_centroid_total")
            return info.data_centroid
        if len(info.clusters) == 1:
            obs.count("repro.detokenization.mode.single_cluster_total")
            return info.clusters[0].centroid

        direction = self._token_direction(hexagon_centroid, incoming_from, outgoing_to)
        if direction is None:
            # No directional context at all: the biggest cluster is the
            # best unconditional guess.
            obs.count("repro.detokenization.mode.largest_cluster_total")
            return max(info.clusters, key=lambda c: c.size).centroid
        best = min(
            info.clusters, key=lambda c: angle_difference(c.direction, direction)
        )
        obs.count("repro.detokenization.mode.direction_match_total")
        return best.centroid

    @staticmethod
    def _token_direction(
        here: Point, incoming_from: Optional[Point], outgoing_to: Optional[Point]
    ) -> Optional[float]:
        angles: list[float] = []
        if incoming_from is not None and incoming_from.distance_to(here) > 0:
            angles.append(incoming_from.bearing_to(here))
        if outgoing_to is not None and here.distance_to(outgoing_to) > 0:
            angles.append(here.bearing_to(outgoing_to))
        if not angles:
            return None
        return _circular_mean(np.array(angles))

    def detokenize_interior(
        self,
        interior_tokens: Sequence[int],
        start_point: Point,
        end_point: Point,
    ) -> list[Point]:
        """Convert a gap's imputed tokens into points, left to right.

        The direction context for each token uses the previously chosen
        point on the left and the next token's cell centroid (or the gap's
        end point) on the right.
        """
        centroids = [self.tokenizer.centroid_of_token(t) for t in interior_tokens]
        out: list[Point] = []
        previous = start_point
        for idx, token in enumerate(interior_tokens):
            nxt = centroids[idx + 1] if idx + 1 < len(centroids) else end_point
            chosen = self.point_for_token(token, previous, nxt)
            out.append(chosen)
            previous = chosen
        return out
