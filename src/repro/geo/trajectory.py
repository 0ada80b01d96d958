"""Trajectories: ordered timestamped point sequences and their operations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import EmptyInputError
from repro.geo.bbox import BoundingBox
from repro.geo.point import Point, interpolate


@dataclass(frozen=True)
class Trajectory:
    """An ordered sequence of GPS points belonging to one trip.

    Points are expected (but not required) to be sorted by timestamp;
    :meth:`is_time_ordered` checks, and the :mod:`repro.roadnet` simulator
    always produces ordered trajectories.
    """

    traj_id: str
    points: tuple[Point, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # Accept any sequence at construction time but store a tuple so the
        # trajectory is hashable and safely shareable.
        if not isinstance(self.points, tuple):
            object.__setattr__(self, "points", tuple(self.points))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __getitem__(self, index: int) -> Point:
        return self.points[index]

    @property
    def is_empty(self) -> bool:
        return not self.points

    def is_time_ordered(self) -> bool:
        """Whether timestamps are present and non-decreasing."""
        stamps = [p.t for p in self.points]
        if any(t is None for t in stamps):
            return False
        return all(a <= b for a, b in zip(stamps, stamps[1:]))  # type: ignore[operator]

    @property
    def duration(self) -> float:
        """Elapsed seconds between first and last point (0 if untimed)."""
        if len(self.points) < 2:
            return 0.0
        first, last = self.points[0].t, self.points[-1].t
        if first is None or last is None:
            return 0.0
        return last - first

    @property
    def length(self) -> float:
        """Total polyline length in meters."""
        return sum(a.distance_to(b) for a, b in self.segments())

    def bbox(self) -> BoundingBox:
        """Minimum bounding rectangle of the trajectory."""
        if self.is_empty:
            raise EmptyInputError(f"trajectory {self.traj_id!r} has no points")
        return BoundingBox.from_points(self.points)

    def segments(self) -> Iterator[tuple[Point, Point]]:
        """Iterate over consecutive point pairs."""
        return zip(self.points, self.points[1:])

    def max_gap(self) -> float:
        """Largest distance between consecutive points (0 for < 2 points)."""
        return max((a.distance_to(b) for a, b in self.segments()), default=0.0)

    def with_points(self, points: Sequence[Point]) -> "Trajectory":
        """A copy of this trajectory with ``points`` substituted."""
        return Trajectory(self.traj_id, tuple(points))

    def sparsify_indices(self, sparse_distance: float) -> list[int]:
        """Indices of the points kept by the paper's sparsification (Section 8).

        Keep the first point, drop every subsequent point within
        ``sparse_distance`` meters (measured along the trajectory) of the
        last kept point, keep the next one, and so on. The final point is
        always kept so the trajectory endpoints are preserved.
        """
        if sparse_distance <= 0:
            raise ValueError(f"sparse_distance must be positive, got {sparse_distance!r}")
        pts = self.points
        if len(pts) <= 2:
            return list(range(len(pts)))
        kept = [0]
        travelled = 0.0
        for i in range(1, len(pts)):
            travelled += pts[i - 1].distance_to(pts[i])
            if travelled >= sparse_distance:
                kept.append(i)
                travelled = 0.0
        if kept[-1] != len(pts) - 1:
            kept.append(len(pts) - 1)
        return kept

    def sparsify(self, sparse_distance: float) -> "Trajectory":
        """The points :meth:`sparsify_indices` keeps, as a trajectory."""
        kept = self.sparsify_indices(sparse_distance)
        if len(kept) == len(self.points):
            return self
        return self.with_points([self.points[i] for i in kept])

    def discretize(self, spacing: float) -> list[Point]:
        """Place points every ``spacing`` meters along the polyline.

        This is the discretization the paper's recall/precision metrics use:
        the returned list starts at the first point and walks the polyline,
        emitting one point per ``spacing`` meters of arc length, ending with
        the final point. Timestamps are linearly interpolated.
        """
        if spacing <= 0:
            raise ValueError(f"spacing must be positive, got {spacing!r}")
        if len(self.points) < 2:
            return list(self.points)
        out = [self.points[0]]
        residual = spacing
        for a, b in self.segments():
            seg_len = a.distance_to(b)
            if seg_len == 0.0:
                continue
            offset = residual
            while offset <= seg_len:
                out.append(interpolate(a, b, offset / seg_len))
                offset += spacing
            residual = offset - seg_len
        if out[-1].distance_to(self.points[-1]) > 1e-9:
            out.append(self.points[-1])
        return out

    def resample_time(self, interval_s: float) -> "Trajectory":
        """Downsample to roughly one point every ``interval_s`` seconds.

        Keeps the first point, then every point at least ``interval_s``
        after the last kept one, plus the final point. Used to build the
        paper's "sampling rate" training-density variants (Fig. 12-V).
        """
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s!r}")
        if len(self.points) <= 2 or not self.is_time_ordered():
            return self
        kept = [self.points[0]]
        for p in self.points[1:-1]:
            assert p.t is not None and kept[-1].t is not None
            if p.t - kept[-1].t >= interval_s:
                kept.append(p)
        kept.append(self.points[-1])
        return self.with_points(kept)

    def split(self, max_points: int) -> list["Trajectory"]:
        """Split into chunks of at most ``max_points`` points.

        Consecutive chunks share their boundary point so no segment is lost.
        """
        if max_points < 2:
            raise ValueError(f"max_points must be at least 2, got {max_points!r}")
        if len(self.points) <= max_points:
            return [self]
        chunks: list[Trajectory] = []
        start = 0
        part = 0
        while start < len(self.points) - 1:
            end = min(start + max_points, len(self.points))
            chunks.append(
                Trajectory(f"{self.traj_id}/{part}", self.points[start:end])
            )
            part += 1
            start = end - 1
        return chunks
