"""HMM map matching + shortest-path imputation (the paper's reference).

The paper plots "Map Matching" (Yang & Gidofalvi's FMM-style HMM matcher)
as the method that *does* know the road network — an effective upper bound
KAMEL is measured against. This implementation:

1. enumerates candidate edge projections for every sparse point,
2. runs Viterbi with Gaussian emission probabilities (GPS noise) and
   transitions penalizing the difference between network route distance
   and straight-line distance (the classic Newson-Krumm formulation),
3. imputes each gap with the route geometry between the matched
   positions, discretized at ``maxgap`` spacing.

A segment with no candidates or no connecting route falls back to a
straight line and counts as failed.
"""

from __future__ import annotations

from typing import Optional, Sequence

import networkx as nx

from repro.core.result import ImputationResult, Imputer, SegmentOutcome
from repro.geo import Point, Trajectory, assign_times, interpolate, linear_interior
from repro.roadnet.network import EdgePosition, RoadNetwork


CANDIDATE_RADIUS_M = 120.0
MAX_CANDIDATES = 5
EMISSION_SIGMA_M = 30.0
TRANSITION_BETA_M = 40.0
ROUTE_CUTOFF_FACTOR = 4.0
"""Route search gives up beyond ``factor * euclid + 500`` meters."""


class HmmMapMatcher(Imputer):
    """Viterbi map matching over a known road network."""

    def __init__(self, network: RoadNetwork, maxgap_m: float = 100.0) -> None:
        if maxgap_m <= 0:
            raise ValueError(f"maxgap_m must be positive, got {maxgap_m!r}")
        self.network = network
        self.maxgap_m = maxgap_m

    @property
    def name(self) -> str:
        return "MapMatch"

    # -- HMM components -----------------------------------------------------

    def _emission_logp(self, candidate: EdgePosition) -> float:
        return -(candidate.distance_m**2) / (2.0 * EMISSION_SIGMA_M**2)

    def _route(
        self, start: EdgePosition, end: EdgePosition, cutoff: float
    ) -> Optional[tuple[float, list[Point]]]:
        """Shortest route between two on-edge positions.

        Returns (network distance, geometry polyline) or None when no
        route exists within ``cutoff`` meters.
        """
        net = self.network
        if start.edge.key() == end.edge.key():
            # Same edge: walk along it between the two offsets.
            along = abs(end.offset_m - start.offset_m)
            if along > cutoff:
                return None
            geom = net.edge_geometry(start.edge.u, start.edge.v)
            lo, hi = sorted((start.offset_m, end.offset_m))
            sub = _subline(geom, lo, hi)
            if start.offset_m > end.offset_m:
                sub = list(reversed(sub))
            return along, sub

        start_len = net.edge_length(start.edge.u, start.edge.v)
        end_len = net.edge_length(end.edge.u, end.edge.v)
        # Distance from the start position to each endpoint of its edge,
        # and from each endpoint of the end edge to the end position.
        exits = {
            start.edge.u: start.offset_m,
            start.edge.v: start_len - start.offset_m,
        }
        entries = {
            end.edge.u: end.offset_m,
            end.edge.v: end_len - end.offset_m,
        }
        best: Optional[tuple[float, object, object]] = None
        lengths_cache: dict = {}
        for exit_node, exit_cost in exits.items():
            if exit_node not in lengths_cache:
                lengths_cache[exit_node] = self.network.single_source_lengths(
                    exit_node, cutoff=cutoff
                )
            lengths = lengths_cache[exit_node]
            for entry_node, entry_cost in entries.items():
                mid = lengths.get(entry_node)
                if mid is None:
                    continue
                total = exit_cost + mid + entry_cost
                if best is None or total < best[0]:
                    best = (total, exit_node, entry_node)
        if best is None or best[0] > cutoff:
            return None
        total, exit_node, entry_node = best

        geometry: list[Point] = [start.point]
        start_geom = net.edge_geometry(start.edge.u, start.edge.v)
        if exit_node == start.edge.u:
            geometry.extend(reversed(_subline(start_geom, 0.0, start.offset_m)[:-1]))
        else:
            geometry.extend(_subline(start_geom, start.offset_m, start_len)[1:])
        try:
            node_path = net.shortest_path(exit_node, entry_node)
        except nx.NetworkXNoPath:
            return None
        geometry.extend(net.path_geometry(node_path)[1:])
        end_geom = net.edge_geometry(end.edge.u, end.edge.v)
        if entry_node == end.edge.u:
            geometry.extend(_subline(end_geom, 0.0, end.offset_m)[1:])
        else:
            geometry.extend(reversed(_subline(end_geom, end.offset_m, end_len)[:-1]))
        geometry.append(end.point)
        return total, geometry

    def match(self, trajectory: Trajectory) -> list[Optional[EdgePosition]]:
        """Viterbi-match each point to an edge position (None = unmatched)."""
        candidate_sets: list[list[EdgePosition]] = [
            self.network.nearest_edges(p, CANDIDATE_RADIUS_M, MAX_CANDIDATES)
            for p in trajectory.points
        ]

        matched: list[Optional[EdgePosition]] = [None] * len(trajectory)
        # Viterbi over contiguous runs of points that have candidates.
        run_start = 0
        while run_start < len(trajectory):
            if not candidate_sets[run_start]:
                run_start += 1
                continue
            run_end = run_start
            while run_end + 1 < len(trajectory) and candidate_sets[run_end + 1]:
                run_end += 1
            self._viterbi_run(trajectory, candidate_sets, run_start, run_end, matched)
            run_start = run_end + 1
        return matched

    def _viterbi_run(
        self,
        trajectory: Trajectory,
        candidate_sets: list[list[EdgePosition]],
        start: int,
        end: int,
        matched: list[Optional[EdgePosition]],
    ) -> None:
        points = trajectory.points
        scores = [self._emission_logp(c) for c in candidate_sets[start]]
        backptr: list[list[int]] = []
        for t in range(start + 1, end + 1):
            straight = points[t - 1].distance_to(points[t])
            cutoff = ROUTE_CUTOFF_FACTOR * straight + 500.0
            prev_cands = candidate_sets[t - 1]
            cur_cands = candidate_sets[t]
            new_scores = [float("-inf")] * len(cur_cands)
            pointers = [0] * len(cur_cands)
            for j, cur in enumerate(cur_cands):
                emit = self._emission_logp(cur)
                for i, prev in enumerate(prev_cands):
                    if scores[i] == float("-inf"):
                        continue
                    route = self._route(prev, cur, cutoff)
                    if route is None:
                        continue
                    trans = -abs(route[0] - straight) / TRANSITION_BETA_M
                    total = scores[i] + trans + emit
                    if total > new_scores[j]:
                        new_scores[j] = total
                        pointers[j] = i
            if all(s == float("-inf") for s in new_scores):
                # Broken chain: fall back to emission only (restart).
                new_scores = [self._emission_logp(c) for c in cur_cands]
            scores = new_scores
            backptr.append(pointers)

        best = max(range(len(scores)), key=lambda j: scores[j])
        choice = best
        for t in range(end, start, -1):
            matched[t] = candidate_sets[t][choice]
            choice = backptr[t - start - 1][choice]
        matched[start] = candidate_sets[start][choice]

    # -- Imputer interface ---------------------------------------------------------

    def impute(self, trajectory: Trajectory) -> ImputationResult:
        points = trajectory.points
        if len(points) < 2:
            return ImputationResult(trajectory, ())
        matched = self.match(trajectory)
        out: list[Point] = [points[0]]
        outcomes: list[SegmentOutcome] = []
        for i in range(len(points) - 1):
            a, b = points[i], points[i + 1]
            gap = a.distance_to(b)
            if gap <= self.maxgap_m:
                out.append(b)
                continue
            interior = self._impute_gap(matched[i], matched[i + 1], gap)
            if interior is None:
                interior = linear_interior(a, b, self.maxgap_m)
                outcomes.append(SegmentOutcome(i, True, 0, len(interior)))
            else:
                interior = assign_times(a, b, interior)
                outcomes.append(SegmentOutcome(i, False, 0, len(interior)))
            out.extend(interior)
            out.append(b)
        return ImputationResult(trajectory.with_points(out), tuple(outcomes))

    def _impute_gap(
        self,
        start: Optional[EdgePosition],
        end: Optional[EdgePosition],
        straight: float,
    ) -> Optional[list[Point]]:
        if start is None or end is None:
            return None
        cutoff = ROUTE_CUTOFF_FACTOR * straight + 500.0
        route = self._route(start, end, cutoff)
        if route is None:
            return None
        _, geometry = route
        dense = Trajectory("route", geometry).discretize(self.maxgap_m)
        return dense[1:-1]


def _subline(geometry: Sequence[Point], off_a: float, off_b: float) -> list[Point]:
    """The polyline portion between two arc-length offsets (off_a <= off_b)."""
    out: list[Point] = []
    walked = 0.0
    out.append(_point_at(geometry, off_a))
    for u, v in zip(geometry, geometry[1:]):
        seg = u.distance_to(v)
        end = walked + seg
        if off_a < end < off_b:
            out.append(v)
        walked = end
    out.append(_point_at(geometry, off_b))
    return out


def _point_at(geometry: Sequence[Point], offset: float) -> Point:
    if offset <= 0:
        return geometry[0]
    walked = 0.0
    for u, v in zip(geometry, geometry[1:]):
        seg = u.distance_to(v)
        if walked + seg >= offset:
            if seg == 0.0:
                return v
            return interpolate(u, v, (offset - walked) / seg)
        walked += seg
    return geometry[-1]
