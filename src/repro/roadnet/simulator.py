"""GPS trajectory simulation over a road network.

Trips pick random origin/destination nodes, follow the shortest path, and
drive it with a per-trip cruise speed plus short-term speed fluctuations.
The vehicle position is sampled every ``sample_interval_s`` seconds and
perturbed by isotropic Gaussian GPS noise, producing the timestamped,
road-constrained, noisy trajectories that real taxi datasets exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import networkx as nx
import numpy as np

from repro.errors import ConfigError, EmptyInputError
from repro.geo import Point, Trajectory, interpolate
from repro.roadnet.network import RoadNetwork


SPEED_MEAN_MPS = 11.0
"""Mean cruise speed (~40 km/h)."""
SPEED_STD_MPS = 2.5
"""Across-trip cruise speed spread."""
SPEED_JITTER = 0.15
"""Within-trip relative speed fluctuation per sample."""
GPS_NOISE_STD_M = 5.0
"""Isotropic GPS noise per coordinate."""


@dataclass(frozen=True)
class SimulatorConfig:
    """Trip and sensor model parameters."""

    sample_interval_s: float = 1.0
    min_trip_length_m: float = 800.0
    max_trip_length_m: float = float("inf")
    seed: int = 11

    def __post_init__(self) -> None:
        if self.sample_interval_s <= 0:
            raise ConfigError("sample_interval_s must be positive")
        if self.min_trip_length_m < 0:
            raise ConfigError("min_trip_length_m must be non-negative")


class TrajectorySimulator:
    """Simulates GPS trajectories of shortest-path trips on a network."""

    def __init__(self, network: RoadNetwork, config: Optional[SimulatorConfig] = None) -> None:
        if network.num_nodes == 0:
            raise EmptyInputError("cannot simulate on an empty network")
        self.network = network
        self.config = config or SimulatorConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self._nodes = list(network.nodes())

    def _random_trip_path(self, max_attempts: int = 50) -> list:
        """A random node path whose length satisfies the trip bounds."""
        cfg = self.config
        for _ in range(max_attempts):
            # One draw of two distinct nodes per attempt: every recorded
            # dataset depends on the RNG stream being consumed this way.
            u, v = self._rng.choice(len(self._nodes), size=2, replace=False)
            source, target = self._nodes[int(u)], self._nodes[int(v)]
            try:
                length = self.network.shortest_path_length(source, target)
            except nx.NetworkXNoPath:
                continue
            if cfg.min_trip_length_m <= length <= cfg.max_trip_length_m:
                return self.network.shortest_path(source, target)
        raise EmptyInputError(
            "could not sample a trip within the configured length bounds; "
            "check min/max_trip_length_m against the city extent"
        )

    def _drive(self, polyline: list[Point], start_time: float) -> list[Point]:
        """Drive ``polyline`` and emit noisy samples every interval."""
        cfg = self.config
        cruise = max(1.0, self._rng.normal(SPEED_MEAN_MPS, SPEED_STD_MPS))
        samples: list[Point] = []
        t = start_time
        seg_idx = 0
        seg_pos = 0.0  # meters into the current segment
        pos = polyline[0]
        samples.append(self._noisy(pos, t))
        while seg_idx < len(polyline) - 1:
            speed = cruise * max(0.2, 1.0 + self._rng.normal(0.0, SPEED_JITTER))
            advance = speed * cfg.sample_interval_s
            # Walk forward `advance` meters across segments.
            while advance > 0 and seg_idx < len(polyline) - 1:
                a, b = polyline[seg_idx], polyline[seg_idx + 1]
                seg_len = a.distance_to(b)
                remaining = seg_len - seg_pos
                if advance < remaining:
                    seg_pos += advance
                    advance = 0.0
                    pos = interpolate(a, b, seg_pos / seg_len) if seg_len else b
                else:
                    advance -= remaining
                    seg_idx += 1
                    seg_pos = 0.0
                    pos = b
            t += cfg.sample_interval_s
            samples.append(self._noisy(pos, t))
        return samples

    def _noisy(self, p: Point, t: float) -> Point:
        nx_, ny_ = self._rng.normal(0.0, GPS_NOISE_STD_M, size=2)
        return Point(p.x + nx_, p.y + ny_, t)

    def simulate_one(self, traj_id: str, start_time: float = 0.0) -> Trajectory:
        """One random trip as a noisy sampled trajectory."""
        path = self._random_trip_path()
        polyline = self.network.path_geometry(path)
        return Trajectory(traj_id, self._drive(polyline, start_time))

    def simulate(self, n: int, id_prefix: str = "trip") -> list[Trajectory]:
        """``n`` independent trips."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n!r}")
        return [self.simulate_one(f"{id_prefix}-{k}", start_time=0.0) for k in range(n)]

    def stream(self, id_prefix: str = "trip") -> Iterator[Trajectory]:
        """An endless stream of trips (for the online-mode examples)."""
        k = 0
        while True:
            yield self.simulate_one(f"{id_prefix}-{k}")
            k += 1
