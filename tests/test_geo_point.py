"""Unit and property tests for repro.geo.point."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.geo import (
    LocalProjection,
    Point,
    angle_difference,
    haversine_m,
    interpolate,
    normalize_angle,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
# Every non-NaN double (±0.0, subnormals, the largest finite values and
# the infinities among them) and the kinds of number that reach a Point.
doubles = st.floats(allow_nan=False)
coordinates = st.one_of(
    doubles,
    doubles.map(np.float64),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.integers(min_value=-(2**1000), max_value=2**1000),
)


class TestPoint:
    def test_distance_to_pythagoras(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a, b = Point(1.5, -2.0), Point(-4.0, 7.25)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_distance_to_self_is_zero(self):
        p = Point(12.0, -8.0, t=3.0)
        assert p.distance_to(p) == 0.0

    def test_bearing_east(self):
        assert Point(0, 0).bearing_to(Point(10, 0)) == pytest.approx(0.0)

    def test_bearing_north(self):
        assert Point(0, 0).bearing_to(Point(0, 10)) == pytest.approx(math.pi / 2)

    def test_bearing_west(self):
        assert abs(Point(0, 0).bearing_to(Point(-10, 0))) == pytest.approx(math.pi)

    def test_offset(self):
        p = Point(1.0, 2.0, t=5.0).offset(3.0, -1.0)
        assert (p.x, p.y, p.t) == (4.0, 1.0, 5.0)

    def test_with_time(self):
        assert Point(1, 2, t=0.0).with_time(9.0).t == 9.0
        assert Point(1, 2, t=0.0).with_time(None).t is None

    def test_midpoint_averages_coordinates_and_time(self):
        m = Point(0, 0, t=0.0).midpoint(Point(10, 20, t=4.0))
        assert (m.x, m.y, m.t) == (5.0, 10.0, 2.0)

    def test_midpoint_without_times(self):
        assert Point(0, 0).midpoint(Point(2, 2, t=1.0)).t is None

    def test_points_are_hashable_and_frozen(self):
        p = Point(1, 2)
        assert hash(p) == hash(Point(1, 2))
        with pytest.raises(AttributeError):
            p.x = 5.0  # type: ignore[misc]

    @given(finite, finite, finite, finite)
    def test_triangle_inequality(self, x1, y1, x2, y2):
        a, b, origin = Point(x1, y1), Point(x2, y2), Point(0, 0)
        assert a.distance_to(b) <= a.distance_to(origin) + origin.distance_to(b) + 1e-6


class TestFloatFields:
    """A Point's fields are Python floats with the bits ``float()`` gives."""

    @given(coordinates, coordinates, st.none() | coordinates)
    @example(0.0, -0.0, None)
    @example(np.float64(-0.0), np.float64(5e-324), np.float64(-5e-324))
    @example(np.float64(1.7976931348623157e308), -(2**1000), np.float32(-0.0))
    def test_fields_are_floats_with_the_same_bits(self, x, y, t):
        p = Point(x, y, t)
        assert type(p.x) is float and type(p.y) is float
        if t is None:
            assert p.t is None
        else:
            assert type(p.t) is float
        fields = (p.x, p.y, 0.0 if t is None else p.t)
        expected = (float(x), float(y), 0.0 if t is None else float(t))
        assert struct.pack("<ddd", *fields) == struct.pack("<ddd", *expected)

    @given(doubles, doubles, st.none() | doubles)
    @example(-0.0, 5e-324, None)
    def test_numpy_scalars_make_the_same_point(self, x, y, t):
        from_numpy = Point(
            np.float64(x), np.float64(y), None if t is None else np.float64(t)
        )
        assert from_numpy == Point(x, y, t)
        assert hash(from_numpy) == hash(Point(x, y, t))

    def test_derived_points_are_floats(self):
        a = Point(np.float64(1.5), np.float64(-2.0), np.float64(3.0))
        b = Point(np.float64(4.0), np.float64(6.0))
        derived = [
            a.offset(np.float64(1.0), np.float64(2.0)),
            a.with_time(np.float64(9.0)),
            a.midpoint(b),
            interpolate(a, b, np.float64(0.25)),
        ]
        for p in derived:
            assert type(p.x) is float and type(p.y) is float
            assert p.t is None or type(p.t) is float


class TestInterpolate:
    def test_endpoints(self):
        a, b = Point(0, 0, t=0.0), Point(10, 10, t=10.0)
        assert interpolate(a, b, 0.0) == a
        assert interpolate(a, b, 1.0) == b

    def test_midway(self):
        p = interpolate(Point(0, 0, t=0.0), Point(10, 0, t=4.0), 0.5)
        assert (p.x, p.y, p.t) == (5.0, 0.0, 2.0)

    def test_extrapolation(self):
        p = interpolate(Point(0, 0), Point(10, 0), 1.5)
        assert p.x == pytest.approx(15.0)

    def test_no_time_when_endpoint_missing(self):
        assert interpolate(Point(0, 0, t=0.0), Point(1, 1), 0.5).t is None

    @given(st.floats(min_value=0, max_value=1))
    def test_interpolated_point_on_segment(self, f):
        a, b = Point(0, 0), Point(6, 8)
        p = interpolate(a, b, f)
        assert a.distance_to(p) + p.distance_to(b) == pytest.approx(10.0, abs=1e-6)


class TestAngles:
    def test_normalize_zero(self):
        assert normalize_angle(0.0) == 0.0

    def test_normalize_wraps_positive(self):
        assert normalize_angle(2 * math.pi + 0.25) == pytest.approx(0.25)

    def test_normalize_wraps_negative(self):
        assert normalize_angle(-2 * math.pi - 0.25) == pytest.approx(-0.25)

    def test_normalize_pi_is_pi(self):
        assert normalize_angle(math.pi) == pytest.approx(math.pi)

    @given(angles)
    def test_normalize_range(self, a):
        out = normalize_angle(a)
        assert -math.pi < out <= math.pi + 1e-12

    @given(angles, angles)
    def test_angle_difference_bounds(self, a, b):
        d = angle_difference(a, b)
        assert 0.0 <= d <= math.pi + 1e-12

    @given(angles, angles)
    def test_angle_difference_symmetric(self, a, b):
        assert angle_difference(a, b) == pytest.approx(angle_difference(b, a), abs=1e-9)

    def test_angle_difference_opposite(self):
        assert angle_difference(0.0, math.pi) == pytest.approx(math.pi)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_m(45.0, 7.0, 45.0, 7.0) == 0.0

    def test_one_degree_latitude(self):
        # One degree of latitude is ~111.2 km everywhere.
        assert haversine_m(0.0, 0.0, 1.0, 0.0) == pytest.approx(111_195, rel=0.01)

    def test_symmetry(self):
        d1 = haversine_m(41.15, -8.61, 41.20, -8.65)
        d2 = haversine_m(41.20, -8.65, 41.15, -8.61)
        assert d1 == pytest.approx(d2)


class TestLocalProjection:
    def test_reference_maps_to_origin(self):
        proj = LocalProjection(41.15, -8.61)
        p = proj.to_local(41.15, -8.61)
        assert (p.x, p.y) == (0.0, 0.0)

    def test_round_trip(self):
        proj = LocalProjection(41.15, -8.61)
        lat, lon = proj.to_latlon(proj.to_local(41.16, -8.62))
        assert lat == pytest.approx(41.16, abs=1e-9)
        assert lon == pytest.approx(-8.62, abs=1e-9)

    def test_local_distance_matches_haversine(self):
        proj = LocalProjection(41.15, -8.61)
        a = proj.to_local(41.15, -8.61)
        b = proj.to_local(41.16, -8.60)
        planar = a.distance_to(b)
        geodesic = haversine_m(41.15, -8.61, 41.16, -8.60)
        assert planar == pytest.approx(geodesic, rel=0.01)

    def test_preserves_timestamp(self):
        proj = LocalProjection(0.0, 0.0)
        assert proj.to_local(0.1, 0.1, t=42.0).t == 42.0

    @pytest.mark.parametrize("lat,lon", [(91.0, 0.0), (-91.0, 0.0), (0.0, 181.0), (0.0, -181.0)])
    def test_rejects_out_of_range_reference(self, lat, lon):
        with pytest.raises(ValueError):
            LocalProjection(lat, lon)
