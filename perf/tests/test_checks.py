"""The correctness checks and the comparison rule, on hand-made inputs."""

from repro.core.result import ImputationResult, SegmentOutcome
from repro.geo import Point, Trajectory

from perf.common import Violations, check_output, keep_going
from perf.compare import verdict

A, B, C = Point(0.0, 0.0, 0.0), Point(400.0, 0.0, 40.0), Point(450.0, 0.0, 45.0)
SPARSE = Trajectory("t", (A, B, C))


def _result(points, failed=False):
    return ImputationResult(Trajectory("t", tuple(points)), (SegmentOutcome(0, failed),))


class TestCheckOutput:
    def test_accepts_a_closed_gap(self):
        filled = [A, Point(150.0, 0.0, 15.0), Point(300.0, 0.0, 30.0), B, C]
        assert check_output(SPARSE, _result(filled), 200.0, 100.0) is None

    def test_rejects_lost_or_reordered_input_points(self):
        assert "lost or reordered" in check_output(SPARSE, _result([A, C, B]), 200.0, 100.0)
        assert "lost or reordered" in check_output(SPARSE, _result([A, C]), 200.0, 100.0)

    def test_rejects_a_gap_left_open(self):
        problem = check_output(SPARSE, _result([A, Point(150.0, 0.0, 15.0), B, C]), 200.0, 100.0)
        assert "250 m gap" in problem

    def test_a_linear_fallback_is_held_to_maxgap(self):
        filled = [A, Point(150.0, 0.0, 15.0), Point(300.0, 0.0, 30.0), B, C]
        assert "bound 100 m" in check_output(SPARSE, _result(filled, failed=True), 200.0, 100.0)


def test_violations_count_every_operation_but_keep_few_examples():
    violations = Violations()
    violations.add("nothing", 0)
    violations.add("lost", 3)
    for _ in range(30):
        violations.add("bad output")
    assert violations.count == 33
    assert violations.examples[0] == "lost (x3)" and len(violations.examples) == 20


def test_three_passes_always_then_only_while_they_fit():
    assert keep_going([], 1.0) and keep_going([9.0, 9.0], 1.0)
    assert not keep_going([9.0, 9.0, 9.0], 20.0)
    assert keep_going([2.0, 2.0, 2.0], 20.0)
    assert keep_going([2.0] * 5, 20.0)
    assert not keep_going([2.0] * 8, 20.0)


class TestVerdict:
    SPEED = {"name": "traj_per_s", "better": "higher", "bound": 0.10}
    SHARE = {"name": "failure_rate", "better": "lower", "bound": 0.01}

    def test_ok_within_the_bound(self):
        assert verdict(self.SPEED, [100.0, 101.0, 99.0], [95.0, 96.0, 94.0])[0] == "ok"

    def test_regressed_beyond_it(self):
        assert verdict(self.SPEED, [100.0, 101.0, 99.0], [85.0, 86.0, 84.0])[0] == "regressed"

    def test_unresolved_when_the_spread_is_wider_than_the_bound(self):
        noisy = [100.0, 130.0, 80.0, 120.0, 70.0]
        assert verdict(self.SPEED, noisy, [95.0, 125.0, 75.0, 115.0, 65.0])[0] == "unresolved"

    def test_a_clear_win_is_not_unresolved(self):
        noisy = [100.0, 130.0, 80.0, 120.0, 70.0]
        assert verdict(self.SPEED, noisy, [v + 100.0 for v in noisy])[0] == "ok"

    def test_the_absolute_floor_applies_to_small_shares(self):
        # 1 % of 0.10 is 0.001, the floor 0.005: +0.004 is still ok.
        assert verdict(self.SHARE, [0.100], [0.104])[0] == "ok"
        assert verdict(self.SHARE, [0.100], [0.106])[0] == "regressed"
