"""Geometric primitives: points, bounding boxes, and trajectories.

Everything downstream of this package works in a *local planar frame*
measured in meters. :class:`LocalProjection` converts WGS84 latitude /
longitude coordinates into that frame (and back) so that real GPS data can
be fed through the same code path as the synthetic data generated by
:mod:`repro.roadnet`.
"""

from repro.geo.point import (
    EARTH_RADIUS_M,
    LocalProjection,
    Point,
    assign_times,
    haversine_m,
    interpolate,
    linear_interior,
    normalize_angle,
    angle_difference,
)
from repro.geo.bbox import BoundingBox
from repro.geo.trajectory import Trajectory
from repro.geo.adapter import (
    projection_for,
    trajectory_from_latlon,
    trajectory_to_latlon,
)

__all__ = [
    "EARTH_RADIUS_M",
    "BoundingBox",
    "LocalProjection",
    "Point",
    "Trajectory",
    "angle_difference",
    "assign_times",
    "haversine_m",
    "interpolate",
    "linear_interior",
    "normalize_angle",
    "projection_for",
    "trajectory_from_latlon",
    "trajectory_to_latlon",
]
