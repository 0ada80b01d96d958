"""GEO-style evaluation of an inferred map against the true network.

Follows the standard map-construction evaluation idea (Biagioni &
Eriksson's GEO metric): sample "marbles" every ``SAMPLE_STEP_M`` meters
along the ground-truth network and "holes" at the inferred road cells,
then measure

* **recall** — the fraction of true-network samples that have an inferred
  road cell within ``TOLERANCE_M`` (did we find the roads?), and
* **precision** — the fraction of inferred road cells within
  ``TOLERANCE_M`` of the true network (did we hallucinate roads?).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from repro.errors import EmptyInputError
from repro.geo import Point, interpolate
from repro.mapinference.inference import InferredMap
from repro.roadnet.network import RoadNetwork

TOLERANCE_M = 30.0
"""How near a sample must lie to count as matched."""
SAMPLE_STEP_M = 25.0
"""Spacing of the samples along the ground-truth network."""


@dataclass(frozen=True)
class MapScores:
    """Precision/recall of an inferred map against the truth."""

    precision: float
    recall: float

    @property
    def f1(self) -> float:
        if self.precision + self.recall == 0.0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)


def _network_samples(network: RoadNetwork, step_m: float) -> list[Point]:
    samples: list[Point] = []
    for u, v, data in network.graph.edges(data=True):
        geometry = data["geometry"]
        for a, b in zip(geometry, geometry[1:]):
            length = a.distance_to(b)
            steps = max(1, int(length / step_m))
            for k in range(steps):
                samples.append(interpolate(a, b, k / steps))
    return samples


class _PointIndex:
    """Bucket index answering "is any point within r of p" queries."""

    def __init__(self, points: list[Point], radius: float) -> None:
        self._radius = radius
        self._cell = max(radius, 1.0)
        self._buckets: dict[tuple[int, int], list[Point]] = defaultdict(list)
        for p in points:
            self._buckets[self._key(p)].append(p)

    def _key(self, p: Point) -> tuple[int, int]:
        return (math.floor(p.x / self._cell), math.floor(p.y / self._cell))

    def any_within(self, p: Point) -> bool:
        ci, cj = self._key(p)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for q in self._buckets.get((ci + di, cj + dj), ()):
                    if p.distance_to(q) <= self._radius:
                        return True
        return False


def evaluate_inferred_map(
    inferred: InferredMap, network: RoadNetwork, min_visits: int = 2
) -> MapScores:
    """Score ``inferred`` against the ground-truth ``network``."""
    truth_samples = _network_samples(network, SAMPLE_STEP_M)
    if not truth_samples:
        raise EmptyInputError("the ground-truth network has no edges")
    road_points = inferred.road_points(min_visits)

    truth_index = _PointIndex(truth_samples, TOLERANCE_M)
    inferred_index = _PointIndex(road_points, TOLERANCE_M)

    if road_points:
        precision = sum(
            1 for p in road_points if truth_index.any_within(p)
        ) / len(road_points)
        recall = sum(
            1 for p in truth_samples if inferred_index.any_within(p)
        ) / len(truth_samples)
    else:
        precision = 0.0
        recall = 0.0
    return MapScores(precision=precision, recall=recall)
