"""Spatial constraints on model output (paper Section 5).

Three filters applied to every batch of candidate tokens coming out of the
masked model before the multipoint-imputation module may use them:

* **speed ellipse** — a candidate must lie inside the ellipse whose foci
  are the segment end tokens S and D and whose distance sum is what the
  maximum speed allows within the segment's time span (Section 5.1);
* **direction cones** — a candidate must not fall within the configured
  angle of the direction from S back toward its previous token, nor of
  the direction from D onward toward its next token (Section 5.1);
* **cycle prevention** — inserting the candidate must not create a
  repeated consecutive token block of length up to ``x`` (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.config import KamelConfig
from repro.core.tokenization import Tokenizer
from repro.geo import Point
from repro.geo.point import angle_difference
from repro.mlm.base import TokenProb
from repro.obs import instrument as obs


@dataclass(frozen=True)
class GapContext:
    """Everything the constraints need to know about one segment.

    ``source``/``dest`` are the segment end tokens (S and D in the paper's
    figures); ``prev_token``/``next_token`` are the trajectory tokens just
    before S and just after D (t1 and t2), when they exist. Times are the
    raw GPS timestamps of the segment endpoints.
    """

    source: int
    dest: int
    source_time: Optional[float] = None
    dest_time: Optional[float] = None
    prev_token: Optional[int] = None
    next_token: Optional[int] = None
    reference_speed_mps: Optional[float] = None
    """Observed speed of the preceding imputed segment, for the paper's
    adaptive speed-constraint variant (``KamelConfig.speed_mode``)."""


def creates_cycle(tokens: Sequence[int], insert_pos: int, candidate: int, window: int) -> bool:
    """Would inserting ``candidate`` after ``tokens[insert_pos]`` repeat a block?

    Checks every pair of adjacent equal blocks of length 1..``window`` that
    includes the inserted token — the paper's "sequence of the last x
    tokens are repeated" test, applied locally around the insertion point
    (tokens elsewhere are unchanged, so no new cycle can appear there).
    """
    inserted_at = insert_pos + 1
    n = len(tokens) + 1

    def would_be(i: int) -> int:
        """Index ``i`` of the sequence after insertion, read in place."""
        if i == inserted_at:
            return candidate
        return tokens[i] if i < inserted_at else tokens[i - 1]

    for block in range(1, window + 1):
        # In any placement covering the inserted token, it is compared
        # with the token one block before or one block after it: unless
        # one of those two equals the candidate, no placement can match.
        if not (
            (inserted_at >= block and tokens[inserted_at - block] == candidate)
            or (inserted_at + block < n and tokens[inserted_at + block - 1] == candidate)
        ):
            continue
        # Two adjacent blocks occupy [start, start+2*block); consider every
        # placement that covers the inserted index.
        lo = max(0, inserted_at - 2 * block + 1)
        hi = min(inserted_at, n - 2 * block)
        for start in range(lo, hi + 1):
            if all(would_be(i) == would_be(i + block) for i in range(start, start + block)):
                return True
    return False


_REJECTION_COUNTERS = (
    "special",
    "speed_ellipse",
    "local_detour",
    "length_budget",
    "direction_cone",
    "cycle",
)
_REJECTION_METRICS = tuple(
    f"repro.constraints.rejected.{reason}_total" for reason in _REJECTION_COUNTERS
)


def _record_filter(n_in: int, n_out: int, rejected: Sequence[int]) -> None:
    """Flush one filter call's tallies into the metrics registry.

    ``rejected`` holds one count per reason, in ``_REJECTION_COUNTERS`` order.
    """
    obs.count("repro.constraints.candidates_in_total", n_in)
    obs.count("repro.constraints.candidates_out_total", n_out)
    for metric, n in zip(_REJECTION_METRICS, rejected):
        if n:
            obs.count(metric, n)
    # Windowed rejection ratio for the rolling quality monitors: each
    # candidate contributes one 0/1 bit, so the window weights filter
    # calls by how many candidates they actually saw.
    obs.monitors().rejection.extend(n_in - n_out, n_in)


@dataclass(slots=True)
class _SegmentFrame:
    """What the Section 5 tests need of one :class:`GapContext` that no
    candidate changes: the ellipse foci and bound, and each active
    direction cone as its apex and the bearing of its axis.

    Built once per :meth:`SpatialConstraints.filter` call (and per call of
    a single-candidate predicate), so a candidate costs only the distances
    and bearings from its own centroid.
    """

    source: Point
    dest: Point
    distance_sum: float
    cones: list[tuple[Point, float]]
    cone_half_angle_rad: float

    def within_speed_ellipse(self, c: Point) -> bool:
        return c.distance_to(self.source) + c.distance_to(self.dest) <= self.distance_sum

    def violates_direction(self, c: Point) -> bool:
        for apex, axis in self.cones:
            # The apex itself has no bearing, hence is in no cone.
            if (
                apex.distance_to(c) != 0.0
                and angle_difference(apex.bearing_to(c), axis) <= self.cone_half_angle_rad
            ):
                return True
        return False


class SpatialConstraints:
    """Applies the Section 5 filters to candidate tokens."""

    def __init__(
        self,
        tokenizer: Tokenizer,
        config: KamelConfig,
        max_speed_mps: float,
    ) -> None:
        if max_speed_mps <= 0:
            raise ValueError(f"max_speed_mps must be positive, got {max_speed_mps!r}")
        self.tokenizer = tokenizer
        self.config = config
        self.max_speed_mps = max_speed_mps

    # -- individual constraints -------------------------------------------

    def ellipse_distance_sum(self, ctx: GapContext) -> float:
        """The speed-ellipse bound for this segment (meters).

        ``max_speed * TimeDiff(S, D)`` per the paper, with a slack factor
        and a geometric floor (the straight-line distance plus a couple of
        cells) so zero/short time differences never exclude everything.
        """
        straight = self.tokenizer.token_distance_m(ctx.source, ctx.dest)
        floor = max(
            self.config.ellipse_min_sum_m,
            straight + 2.0 * self.tokenizer.grid.centroid_spacing_m,
        )
        if ctx.source_time is None or ctx.dest_time is None:
            return floor
        time_diff = abs(ctx.dest_time - ctx.source_time)
        speed_bound = self.max_speed_mps
        if (
            self.config.speed_mode == "adaptive"
            and ctx.reference_speed_mps is not None
            and ctx.reference_speed_mps > 0
        ):
            # The paper's alternative bound: the preceding segment's speed
            # times a conservative factor, never exceeding the fleet-wide
            # maximum (a traffic jam should tighten, not loosen, physics).
            speed_bound = min(
                self.max_speed_mps,
                ctx.reference_speed_mps * self.config.adaptive_speed_factor,
            )
        return max(floor, speed_bound * time_diff * self.config.speed_slack)

    def _frame(self, ctx: GapContext) -> _SegmentFrame:
        centroid = self.tokenizer.centroid_of_token
        source, dest = centroid(ctx.source), centroid(ctx.dest)
        cones: list[tuple[Point, float]] = []
        # Forbidden: back from S toward the token before it, and on from D
        # toward the token after it. A neighbour in the apex's own cell
        # gives no direction and so no cone.
        for apex, toward_token in ((source, ctx.prev_token), (dest, ctx.next_token)):
            if toward_token is not None:
                toward = centroid(toward_token)
                if apex.distance_to(toward) > 0:
                    cones.append((apex, apex.bearing_to(toward)))
        return _SegmentFrame(
            source, dest, self.ellipse_distance_sum(ctx), cones, self.config.cone_half_angle_rad
        )

    def within_speed_ellipse(self, candidate: int, ctx: GapContext) -> bool:
        c = self.tokenizer.centroid_of_token(candidate)
        return self._frame(ctx).within_speed_ellipse(c)

    def violates_direction(self, candidate: int, ctx: GapContext) -> bool:
        """True when the candidate falls in a forbidden direction cone."""
        c = self.tokenizer.centroid_of_token(candidate)
        return self._frame(ctx).violates_direction(c)

    # -- the combined filter ---------------------------------------------------

    def filter(
        self,
        candidates: Sequence[TokenProb],
        ctx: GapContext,
        segment: Sequence[int],
        insert_pos: int,
    ) -> list[TokenProb]:
        """Drop candidates violating any constraint (order preserved).

        ``segment`` is the segment token list built so far (S .. D) and
        ``insert_pos`` the index after which the candidate would go.
        """
        # Everything the candidate does not change is worked out here,
        # once per call; the loop below does only the candidate's own
        # distances and bearings (this runs inside the beam loop).
        centroid = self.tokenizer.centroid_of_token
        num_special = self.tokenizer.vocabulary.num_special
        cycle_window = self.config.cycle_window
        frame = self._frame(ctx)
        gap_left = centroid(segment[insert_pos])
        gap_right = centroid(segment[insert_pos + 1])
        gap_len = gap_left.distance_to(gap_right)
        local_budget = gap_len + self.config.local_detour_slack_m
        # Travel-distance budget: the whole imputed path may not be longer
        # than the maximum speed allows within the segment's time span —
        # the same bound as the position ellipse, applied to arc length.
        # Without it, the search can zig-zag arbitrarily inside the
        # ellipse and "close" a gap with a physically impossible path.
        length_budget = frame.distance_sum
        length_without_gap = self._segment_length(segment) - gap_len
        # Rejections are tallied locally and flushed as one counter update
        # per filter call, keeping the per-candidate loop free of registry
        # traffic.
        n_special = n_ellipse = n_detour = n_length = n_cone = n_cycle = 0
        out: list[TokenProb] = []
        for token, prob in candidates:
            if 0 <= token < num_special:  # Vocabulary.is_special, inlined
                n_special += 1
                continue
            c = centroid(token)
            if not frame.within_speed_ellipse(c):
                n_ellipse += 1
                continue
            to_left = c.distance_to(gap_left)
            to_right = c.distance_to(gap_right)
            if to_left + to_right > local_budget:
                n_detour += 1
                continue
            if length_without_gap + to_left + to_right > length_budget:
                n_length += 1
                continue
            if frame.violates_direction(c):
                n_cone += 1
                continue
            if creates_cycle(segment, insert_pos, token, cycle_window):
                n_cycle += 1
                continue
            out.append((token, prob))
        _record_filter(
            len(candidates),
            len(out),
            (n_special, n_ellipse, n_detour, n_length, n_cone, n_cycle),
        )
        return out

    def _segment_length(self, segment: Sequence[int]) -> float:
        """Arc length of a segment's token-centroid polyline."""
        centroids = [self.tokenizer.centroid_of_token(t) for t in segment]
        return sum(a.distance_to(b) for a, b in zip(centroids, centroids[1:]))


class PassthroughConstraints(SpatialConstraints):
    """Ablation variant (Fig. 12-VI "No Const."): accept any prediction.

    Only special tokens and immediate self-repetition are still rejected —
    without the latter, iterative calling would loop forever on its own
    output, which the paper's "trivial cycle" rejection exists to prevent
    even in the ablated system.
    """

    def filter(
        self,
        candidates: Sequence[TokenProb],
        ctx: GapContext,
        segment: Sequence[int],
        insert_pos: int,
    ) -> list[TokenProb]:
        num_special = self.tokenizer.vocabulary.num_special
        n_special = n_cycle = 0
        out: list[TokenProb] = []
        for token, prob in candidates:
            if 0 <= token < num_special:
                n_special += 1
                continue
            if creates_cycle(segment, insert_pos, token, 1):
                n_cycle += 1
                continue
            out.append((token, prob))
        _record_filter(len(candidates), len(out), (n_special, 0, 0, 0, 0, n_cycle))
        return out
