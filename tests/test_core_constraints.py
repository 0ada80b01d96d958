"""Tests for the spatial constraints module (paper Section 5)."""

import math

import pytest

from repro.core.constraints import (
    GapContext,
    PassthroughConstraints,
    SpatialConstraints,
    creates_cycle,
)
from repro.core.tokenization import Tokenizer
from repro.geo import Point
from repro.grid import HexGrid


@pytest.fixture()
def setup():
    """A tokenizer with an east-west corridor of interned cells."""
    tokenizer = Tokenizer(HexGrid(75.0))
    tokens = {}
    for name, (x, y) in {
        "S": (0.0, 0.0),
        "D": (600.0, 0.0),
        "mid": (300.0, 0.0),
        "behind_S": (-300.0, 0.0),
        "beyond_D": (900.0, 0.0),
        "north": (300.0, 800.0),
        "far": (5000.0, 5000.0),
    }.items():
        tokens[name] = tokenizer.vocabulary.add(tokenizer.grid.cell_of(Point(x, y)))
    constraints = SpatialConstraints(tokenizer, max_speed_mps=15.0)
    return tokenizer, tokens, constraints


def make_ctx(tokens, dt=60.0, prev=None, nxt=None) -> GapContext:
    return GapContext(
        source=tokens["S"],
        dest=tokens["D"],
        source_time=0.0,
        dest_time=dt,
        prev_token=tokens[prev] if prev else None,
        next_token=tokens[nxt] if nxt else None,
    )


class TestSpeedEllipse:
    def test_midpoint_accepted(self, setup):
        _, tokens, constraints = setup
        assert constraints.within_speed_ellipse(tokens["mid"], make_ctx(tokens))

    def test_far_point_rejected(self, setup):
        _, tokens, constraints = setup
        assert not constraints.within_speed_ellipse(tokens["far"], make_ctx(tokens))

    def test_ellipse_scales_with_time(self, setup):
        _, tokens, constraints = setup
        tight = constraints.ellipse_distance_sum(make_ctx(tokens, dt=45.0))
        loose = constraints.ellipse_distance_sum(make_ctx(tokens, dt=300.0))
        assert loose > tight

    def test_floor_covers_straight_line(self, setup):
        tokenizer, tokens, constraints = setup
        # Zero time difference still admits the straight path.
        ctx = GapContext(tokens["S"], tokens["D"], 0.0, 0.0)
        straight = tokenizer.token_distance_m(tokens["S"], tokens["D"])
        assert constraints.ellipse_distance_sum(ctx) >= straight

    def test_missing_times_uses_floor(self, setup):
        _, tokens, constraints = setup
        ctx = GapContext(tokens["S"], tokens["D"])
        assert constraints.ellipse_distance_sum(ctx) > 0

    def test_invalid_speed(self, setup):
        tokenizer, _, _ = setup
        with pytest.raises(ValueError):
            SpatialConstraints(tokenizer, max_speed_mps=0.0)


class TestDirectionCones:
    def test_candidate_behind_source_rejected(self, setup):
        """Figure 5: a token toward t1 (before S) is off-limits."""
        _, tokens, constraints = setup
        ctx = make_ctx(tokens, prev="behind_S")
        assert constraints.violates_direction(tokens["behind_S"], ctx)

    def test_candidate_beyond_dest_rejected(self, setup):
        _, tokens, constraints = setup
        ctx = make_ctx(tokens, nxt="beyond_D")
        assert constraints.violates_direction(tokens["beyond_D"], ctx)

    def test_forward_candidate_allowed(self, setup):
        _, tokens, constraints = setup
        ctx = make_ctx(tokens, prev="behind_S", nxt="beyond_D")
        assert not constraints.violates_direction(tokens["mid"], ctx)

    def test_no_context_no_rejection(self, setup):
        _, tokens, constraints = setup
        assert not constraints.violates_direction(tokens["behind_S"], make_ctx(tokens))

    def test_perpendicular_not_in_cone(self, setup):
        _, tokens, constraints = setup
        ctx = make_ctx(tokens, prev="behind_S")
        assert not constraints.violates_direction(tokens["north"], ctx)


class TestCyclePrevention:
    def test_trivial_repetition(self):
        assert creates_cycle([10, 20], 0, 10, window=6)
        assert creates_cycle([10, 20], 0, 20, window=6)

    def test_fresh_token_no_cycle(self):
        assert not creates_cycle([10, 20], 0, 30, window=6)

    def test_two_token_cycle(self):
        # inserting 11 after ...10, 11, 10 creates (10, 11)(10, 11)? build:
        # tokens [10, 11, 10, 99]; insert 11 after index 2 -> 10 11 10 11 99
        assert creates_cycle([10, 11, 10, 99], 2, 11, window=6)

    def test_window_limits_detection(self):
        # A length-3 repeat is invisible to a window of 2.
        seq = [1, 2, 3, 1, 2, 99]
        assert creates_cycle(seq, 4, 3, window=3)
        assert not creates_cycle(seq, 4, 3, window=2)

    def test_paper_overpass_example(self):
        """Figure 5(d): S t3 t6 t7 t8 D where t3 appears twice in the
        *trajectory* (before S) is NOT a cycle — no block repeats."""
        # Segment S..D with interior t3 t6 t7 t8; t3 equals a cell that
        # also appears far earlier; no adjacent repeated blocks arise.
        segment = [100, 3, 6, 7]  # S, t3, t6, t7 so far
        assert not creates_cycle(segment, 3, 8, window=6)  # append t8

    def test_insertion_position_matters(self):
        seq = [1, 2, 3]
        # Inserting 2 after position 0 -> 1 2 2 3: cycle.
        assert creates_cycle(seq, 0, 2, window=6)
        # Inserting 9 after position 1 -> 1 2 9 3: fine.
        assert not creates_cycle(seq, 1, 9, window=6)


class TestFilter:
    def test_filters_specials(self, setup):
        _, tokens, constraints = setup
        ctx = make_ctx(tokens)
        out = constraints.filter([(0, 0.5), (1, 0.4), (2, 0.3)], ctx, [ctx.source, ctx.dest], 0)
        assert out == []

    def test_keeps_valid_candidate_order(self, setup):
        _, tokens, constraints = setup
        ctx = make_ctx(tokens)
        candidates = [(tokens["mid"], 0.6), (tokens["far"], 0.3)]
        out = constraints.filter(candidates, ctx, [ctx.source, ctx.dest], 0)
        assert out == [(tokens["mid"], 0.6)]

    def test_path_length_budget_blocks_wandering(self, setup):
        """A candidate that balloons the path beyond what the maximum
        speed allows within the time span is rejected even when its
        position is inside the ellipse."""
        tokenizer, tokens, constraints = setup
        # Tight time budget: 600 m straight in 42 s at 15 m/s leaves
        # almost no detour slack.
        ctx = make_ctx(tokens, dt=42.0)
        north = tokens["north"]  # an 800 m sideways excursion
        out = constraints.filter([(north, 0.9)], ctx, [ctx.source, ctx.dest], 0)
        assert out == []

    def test_cycle_rejected_through_filter(self, setup):
        _, tokens, constraints = setup
        ctx = make_ctx(tokens, dt=600.0)
        segment = [tokens["S"], tokens["mid"], tokens["D"]]
        out = constraints.filter([(tokens["mid"], 0.9)], ctx, segment, 1)
        assert out == []

    def test_passthrough_keeps_everything_but_specials_and_self(self, setup):
        tokenizer, tokens, _ = setup
        passthrough = PassthroughConstraints(tokenizer, max_speed_mps=15.0)
        ctx = make_ctx(tokens)
        candidates = [(tokens["far"], 0.5), (0, 0.4), (tokens["S"], 0.3)]
        out = passthrough.filter(candidates, ctx, [tokens["S"], tokens["D"]], 0)
        assert out == [(tokens["far"], 0.5)]
