"""Outlier removal and trip segmentation."""

from __future__ import annotations

from repro.geo import Point, Trajectory


def remove_outliers(
    trajectory: Trajectory, max_speed_mps: float = 50.0
) -> Trajectory:
    """Drop points only reachable at impossible speed from their predecessor.

    A single corrupted fix produces two impossible jumps (into and out of
    the bogus point); dropping the point repairs both. Points without
    timestamps are kept (speed cannot be judged).
    """
    if max_speed_mps <= 0:
        raise ValueError(f"max_speed_mps must be positive, got {max_speed_mps!r}")
    points = trajectory.points
    if len(points) < 2:
        return trajectory
    kept: list[Point] = [points[0]]
    for p in points[1:]:
        prev = kept[-1]
        if p.t is None or prev.t is None or p.t <= prev.t:
            kept.append(p)
            continue
        speed = prev.distance_to(p) / (p.t - prev.t)
        if speed <= max_speed_mps:
            kept.append(p)
    return trajectory.with_points(kept)


def split_by_time_gap(trajectory: Trajectory, max_gap_s: float = 300.0) -> list[Trajectory]:
    """Cut the point stream wherever recording paused longer than the gap.

    A device that goes silent for minutes has usually ended one trip and
    begun another; feeding the concatenation to an imputer would invent a
    road between the two parking spots. A piece of fewer than two points
    is no trip and is dropped.
    """
    if max_gap_s <= 0:
        raise ValueError(f"max_gap_s must be positive, got {max_gap_s!r}")
    points = trajectory.points
    if len(points) < 2:
        return []
    pieces: list[list[Point]] = [[points[0]]]
    for prev, cur in trajectory.segments():
        if prev.t is not None and cur.t is not None and cur.t - prev.t > max_gap_s:
            pieces.append([])
        pieces[-1].append(cur)
    out = []
    for k, piece in enumerate(pieces):
        if len(piece) >= 2:
            suffix = f"/{k}" if len(pieces) > 1 else ""
            out.append(Trajectory(f"{trajectory.traj_id}{suffix}", piece))
    return out
