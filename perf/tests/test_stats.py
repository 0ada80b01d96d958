"""The pure helpers behind the numbers (no ``repro`` import needed)."""

import statistics

import pytest

from perf.stats import (
    arrival_schedule,
    coordinate_digest,
    percentile,
    quartiles,
    request_order,
    self_times,
    spread,
)


class TestPercentile:
    def test_interpolates_like_numpy_linear(self):
        values = [float(v) for v in range(1, 201)]
        assert percentile(values, 0.5) == pytest.approx(100.5)
        assert percentile(values, 0.95) == pytest.approx(190.05)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(300)]
        assert percentile(values[::-1], 0.95) == percentile(values, 0.95)

    def test_refuses_a_tail_with_fewer_than_ten_samples_beyond(self):
        assert percentile([1.0] * 200, 0.95) == 1.0  # exactly ten beyond
        with pytest.raises(ValueError, match="9 beyond"):
            percentile([1.0] * 199, 0.95)
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_rule_can_be_waived_for_smoke_sizes(self):
        assert percentile([1.0, 3.0], 0.5, min_beyond=0) == 2.0

    def test_rejects_q_outside_the_open_interval(self):
        with pytest.raises(ValueError):
            percentile([1.0] * 500, 1.0)


class TestSpread:
    def test_matches_the_drivers_arithmetic(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.1, 9.9, 10.4, 10.0, 9.8, 10.3]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        assert quartiles(values) == (q1, q2, q3)
        assert spread(values) == pytest.approx((q3 - q1) / q2)

    def test_single_value_has_no_spread(self):
        assert quartiles([4.0]) == (4.0, 4.0, 4.0)
        assert spread([4.0]) == 0.0


class TestSelfTimes:
    def test_subtracts_direct_children_only(self):
        #        root 0..10
        #        ├─ a 1..4   (child b 2..3)
        #        └─ c 5..9
        starts = [0.0, 1.0, 2.0, 5.0]
        ends = [10.0, 4.0, 3.0, 9.0]
        parents = [-1, 0, 1, 0]
        assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]

    def test_clock_jitter_never_goes_negative(self):
        assert self_times([0.0, 0.0], [1.0, 1.5], [-1, 0]) == [0.0, 1.5]


class TestArrivalSchedule:
    def test_same_seed_same_schedule(self):
        assert arrival_schedule(50, 40.0, 7) == arrival_schedule(50, 40.0, 7)
        assert arrival_schedule(50, 40.0, 7) != arrival_schedule(50, 40.0, 8)

    def test_increasing_with_the_requested_mean_rate(self):
        due = arrival_schedule(4000, 40.0, 1)
        assert all(a < b for a, b in zip(due, due[1:]))
        assert len(due) / due[-1] == pytest.approx(40.0, rel=0.05)

    def test_rejects_a_zero_rate(self):
        with pytest.raises(ValueError):
            arrival_schedule(10, 0.0, 1)


class TestRequestOrder:
    def test_is_a_seeded_permutation(self):
        order = request_order(200, 3)
        assert sorted(order) == list(range(200))
        assert order == request_order(200, 3)
        assert order != request_order(200, 4)


class TestDigest:
    POINTS = [(1.0, 2.0, 3.0), (4.0, 5.0, None)]

    def test_equal_outputs_equal_digests(self):
        a = coordinate_digest([("t1", self.POINTS)])
        assert a == coordinate_digest([("t1", list(self.POINTS))])

    def test_one_ulp_changes_the_digest(self):
        import math

        moved = [(math.nextafter(1.0, 2.0), 2.0, 3.0), (4.0, 5.0, None)]
        assert coordinate_digest([("t1", self.POINTS)]) != coordinate_digest([("t1", moved)])

    def test_ids_and_order_are_part_of_the_digest(self):
        a, b = ("a", self.POINTS), ("b", self.POINTS)
        assert coordinate_digest([a, b]) != coordinate_digest([b, a])
        assert coordinate_digest([a]) != coordinate_digest([b])
