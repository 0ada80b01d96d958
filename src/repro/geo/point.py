"""Planar points, distances, bearings, and the lat/lon projection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

EARTH_RADIUS_M = 6_371_008.8
"""Mean earth radius in meters (IUGG value), used by geodesic helpers."""


@dataclass(frozen=True, slots=True)
class Point:
    """A timestamped point in the local planar frame.

    ``x`` and ``y`` are meters in an arbitrary but consistent local frame
    (east and north of some origin). ``t`` is a POSIX-style timestamp in
    seconds; ``None`` for purely spatial points (e.g. cell centroids).

    All three fields are Python ``float`` (``t`` may be ``None``), however
    they were computed: a numpy scalar is converted once, here, so no
    per-point step or pickle downstream pays numpy's scalar overhead.
    ``float()`` of a ``numpy.float64`` is exact, so no coordinate moves.
    """

    x: float
    y: float
    t: Optional[float] = None

    def __post_init__(self) -> None:
        if type(self.x) is not float:
            object.__setattr__(self, "x", float(self.x))
        if type(self.y) is not float:
            object.__setattr__(self, "y", float(self.y))
        if self.t is not None and type(self.t) is not float:
            object.__setattr__(self, "t", float(self.t))

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in meters."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def bearing_to(self, other: "Point") -> float:
        """Direction angle from this point to ``other``.

        Measured in radians counter-clockwise from the positive x axis
        (standard math convention), in ``[-pi, pi]``.
        """
        return math.atan2(other.y - self.y, other.x - self.x)

    def offset(self, dx: float, dy: float) -> "Point":
        """Return a copy translated by ``(dx, dy)`` meters."""
        return Point(self.x + dx, self.y + dy, self.t)

    def with_time(self, t: Optional[float]) -> "Point":
        """Return a copy with the timestamp replaced by ``t``."""
        return Point(self.x, self.y, t)

    def midpoint(self, other: "Point") -> "Point":
        """The spatial midpoint; the timestamp is averaged when both exist."""
        t: Optional[float] = None
        if self.t is not None and other.t is not None:
            t = (self.t + other.t) / 2.0
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0, t)


def interpolate(a: Point, b: Point, fraction: float) -> Point:
    """Linearly interpolate between ``a`` and ``b``.

    ``fraction`` = 0 yields ``a``, 1 yields ``b``; values outside ``[0, 1]``
    extrapolate. Timestamps are interpolated when both endpoints carry one.
    """
    t: Optional[float] = None
    if a.t is not None and b.t is not None:
        t = a.t + (b.t - a.t) * fraction
    return Point(a.x + (b.x - a.x) * fraction, a.y + (b.y - a.y) * fraction, t)


def linear_interior(a: Point, b: Point, maxgap_m: float) -> list[Point]:
    """The straight line from ``a`` to ``b`` at <= ``maxgap_m`` spacing, ends
    excluded: what every imputer inserts for a gap it fails on (the
    paper's Section 8 failure definition)."""
    n_intervals = max(1, int(math.ceil(a.distance_to(b) / maxgap_m)))
    return [interpolate(a, b, k / n_intervals) for k in range(1, n_intervals)]


def assign_times(a: Point, b: Point, interior: list[Point]) -> list[Point]:
    """Timestamp the points imputed between ``a`` and ``b`` by their share
    of the arc length from ``a`` to ``b``; unchanged when an end is untimed."""
    if a.t is None or b.t is None or not interior:
        return interior
    path = [a] + interior + [b]
    cumulative = [0.0]
    for u, v in zip(path, path[1:]):
        cumulative.append(cumulative[-1] + u.distance_to(v))
    total = cumulative[-1]
    if total == 0.0:
        return interior
    span = b.t - a.t
    return [
        p.with_time(a.t + span * (cumulative[k + 1] / total))
        for k, p in enumerate(interior)
    ]


def normalize_angle(angle: float) -> float:
    """Wrap ``angle`` (radians) into ``(-pi, pi]``."""
    wrapped = math.fmod(angle, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    elif wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    return wrapped


def angle_difference(a: float, b: float) -> float:
    """Smallest absolute difference between two angles, in ``[0, pi]``."""
    return abs(normalize_angle(a - b))


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters between two WGS84 coordinates."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


class LocalProjection:
    """Equirectangular projection around a reference coordinate.

    Adequate for the city-scale extents this library targets (tens of
    kilometers), where the distortion of the equirectangular approximation
    is far below GPS noise. Maps (lat, lon) to planar (x, y) meters with
    the reference coordinate at the origin, x pointing east and y north.
    """

    def __init__(self, ref_lat: float, ref_lon: float) -> None:
        if not -90.0 <= ref_lat <= 90.0:
            raise ValueError(f"reference latitude out of range: {ref_lat!r}")
        if not -180.0 <= ref_lon <= 180.0:
            raise ValueError(f"reference longitude out of range: {ref_lon!r}")
        self.ref_lat = ref_lat
        self.ref_lon = ref_lon
        self._meters_per_deg_lat = math.pi * EARTH_RADIUS_M / 180.0
        self._meters_per_deg_lon = self._meters_per_deg_lat * math.cos(math.radians(ref_lat))

    def to_local(self, lat: float, lon: float, t: Optional[float] = None) -> Point:
        """Project a WGS84 coordinate into the local planar frame."""
        x = (lon - self.ref_lon) * self._meters_per_deg_lon
        y = (lat - self.ref_lat) * self._meters_per_deg_lat
        return Point(x, y, t)

    def to_latlon(self, point: Point) -> tuple[float, float]:
        """Inverse-project a local point back to (lat, lon)."""
        lat = self.ref_lat + point.y / self._meters_per_deg_lat
        lon = self.ref_lon + point.x / self._meters_per_deg_lon
        return lat, lon

    def __repr__(self) -> str:
        return f"LocalProjection(ref_lat={self.ref_lat}, ref_lon={self.ref_lon})"
