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

What the filters work out that is fixed for a whole segment — and what
they tally — lives in the segment's :class:`SegmentSearch`, never on the
shared :class:`SpatialConstraints`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot
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


@dataclass(slots=True)
class _SegmentFrame:
    """What the Section 5 tests need of one :class:`GapContext` that no
    candidate changes: the ellipse foci and bound, and each active
    direction cone as its apex and the bearing of its axis.

    Built once per :class:`SegmentSearch` (and per call of a
    single-candidate predicate), so a candidate costs only the distances
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


@dataclass(slots=True)
class _Verdict:
    """What the tests that depend on ``(token, GapContext)`` alone say of
    one token, filled in the order :meth:`SpatialConstraints.filter` runs
    them: the ellipse test on first sight, the cone test the first time a
    gap lets the token reach it."""

    centroid: Point
    in_ellipse: bool
    in_cone: Optional[bool] = None


@dataclass(slots=True, eq=False)
class SegmentPath:
    """A partial segment (S .. D) with its polyline measured.

    ``hops[i]`` is the centroid distance from ``tokens[i]`` to
    ``tokens[i + 1]`` and ``length`` is ``sum(hops)``: the one expression
    every reader of the arc length uses, so a path extended hop by hop and
    a path measured from scratch hold the same floats. One instance per
    token tuple per :class:`SegmentSearch`, compared and hashed by
    identity.
    """

    tokens: tuple[int, ...]
    hops: tuple[float, ...]
    length: float


Gap = tuple[SegmentPath, int]
"""A question to the model: ``(partial segment, gap position in it)``."""


class SegmentSearch:
    """Everything the search over one segment has worked out so far.

    Created by whoever owns the segment (``Kamel._impute_segment`` for a
    ladder walk, ``impute_segment`` / ``filter`` for a call made without
    one), handed down to every strategy run and every ``filter`` call of
    that segment, and flushed by its creator — it is a context manager,
    and leaving the block is the flush. Nothing in it is ever stored on
    the shared :class:`SpatialConstraints` or tokenizer.

    * ``answers`` — constrained candidates by :data:`Gap`. An answer
      depends on the gap, the context, the model and ``top_k`` only, so
      runs that ask the same model share them (the ladder's full and
      reduced-beam rungs) and :meth:`asking` drops them when the model
      changes.
    * ``frame`` / ``verdicts`` / ``paths`` — geometry of the one
      :class:`GapContext`: the frame of the position tests, their verdict
      per token, and every partial segment measured so far. Model-free,
      hence shared by all runs.
    * the rejection tallies of every ``filter`` call, kept until
      :meth:`flush`.
    """

    __slots__ = (
        "ctx", "answers", "frame", "verdicts", "paths",
        "_centroid", "_model", "_rejected", "_calls",
    )

    def __init__(self, ctx: GapContext, tokenizer: Tokenizer) -> None:
        self.ctx = ctx
        self.answers: dict[Gap, list[TokenProb]] = {}
        self.frame: Optional[_SegmentFrame] = None
        self.verdicts: dict[int, _Verdict] = {}
        self.paths: dict[tuple[int, ...], SegmentPath] = {}
        self._centroid = tokenizer.centroid_of_token
        self._model: object = None
        self._rejected = [0] * len(_REJECTION_COUNTERS)
        self._calls: list[tuple[int, int]] = []

    def asking(self, model: object) -> "SegmentSearch":
        """Name the model the next run queries; answers of another model
        are dropped, geometry and tallies stay."""
        if model is not self._model:
            self._model = model
            self.answers = {}
        return self

    # -- partial segments -----------------------------------------------------

    def path(self, tokens: Sequence[int]) -> SegmentPath:
        """The measured path over ``tokens`` (measured whole when new)."""
        tokens = tuple(tokens)
        path = self.paths.get(tokens)
        if path is None:
            centroids = [self._centroid(t) for t in tokens]
            hops = tuple(a.distance_to(b) for a, b in zip(centroids, centroids[1:]))
            path = self.paths[tokens] = SegmentPath(tokens, hops, sum(hops))
        return path

    def extend(self, path: SegmentPath, insert_pos: int, token: int) -> SegmentPath:
        """``path`` with ``token`` inserted after position ``insert_pos``.

        Only the two hops the insertion creates are measured, each in the
        path's own direction (as :meth:`path` would); the length is summed
        anew rather than adjusted, because ``length - gap + left + right``
        is a different float from ``sum(hops)``.
        """
        tokens = path.tokens[: insert_pos + 1] + (token,) + path.tokens[insert_pos + 1 :]
        child = self.paths.get(tokens)
        if child is None:
            c = self._centroid(token)
            to_left = self._centroid(tokens[insert_pos]).distance_to(c)
            to_right = c.distance_to(self._centroid(tokens[insert_pos + 2]))
            hops = path.hops[:insert_pos] + (to_left, to_right) + path.hops[insert_pos + 1 :]
            child = self.paths[tokens] = SegmentPath(tokens, hops, sum(hops))
        return child

    # -- rejection tallies ------------------------------------------------------

    def tally(self, n_in: int, rejected: Sequence[int]) -> None:
        """Keep one filter call's counts: ``n_in`` candidates seen, and of
        them ``rejected`` per reason, in ``_REJECTION_COUNTERS`` order."""
        totals = self._rejected
        for i, n in enumerate(rejected):
            if n:
                totals[i] += n
        self._calls.append((sum(rejected), n_in))

    def flush(self) -> None:
        """Move the tallies kept since the last flush into the metrics
        registry and the rolling ``rejection`` monitor.

        Counter totals are what per-call updates would have added up to.
        The monitor gets one ``extend`` per filter call, in call order —
        each candidate one 0/1 bit, so the window weights calls by how
        many candidates they saw, and its thresholds are evaluated after
        each call's bits exactly as if the call had reported itself.
        """
        calls, rejected = self._calls, self._rejected
        if not calls:
            return
        self._calls = []
        self._rejected = [0] * len(_REJECTION_COUNTERS)
        n_in = sum(total for _, total in calls)
        obs.count("repro.constraints.candidates_in_total", n_in)
        obs.count("repro.constraints.candidates_out_total", n_in - sum(rejected))
        for metric, n in zip(_REJECTION_METRICS, rejected):
            if n:
                obs.count(metric, n)
        extend = obs.monitors().rejection.extend
        for dropped, total in calls:
            extend(dropped, total)

    def __enter__(self) -> "SegmentSearch":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.flush()


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
        state: Optional[SegmentSearch] = None,
    ) -> list[TokenProb]:
        """Drop candidates violating any constraint (order preserved).

        ``segment`` is the segment token list built so far (S .. D) and
        ``insert_pos`` the index after which the candidate would go.
        ``state`` is the segment's :class:`SegmentSearch`: what earlier
        calls for the same ``ctx`` worked out is read from it, and this
        call's tallies wait in it for the owner's flush. A call without
        one runs on a state of its own, flushed on the way out.
        """
        if state is None:
            with SegmentSearch(ctx, self.tokenizer) as one_off:
                return self._apply(candidates, segment, insert_pos, one_off)
        if state.ctx is not ctx and state.ctx != ctx:
            raise ValueError("filter state belongs to another GapContext")
        return self._apply(candidates, segment, insert_pos, state)

    def _apply(
        self,
        candidates: Sequence[TokenProb],
        segment: Sequence[int],
        insert_pos: int,
        state: SegmentSearch,
    ) -> list[TokenProb]:
        # Everything the candidate does not change is read from the state
        # or worked out here, once per call; the loop below does only the
        # candidate's own distances to this gap (it runs inside the beam
        # loop) and, the first time a token is seen, its position tests.
        centroid = self.tokenizer.centroid_of_token
        num_special = self.tokenizer.vocabulary.num_special
        cycle_window = self.config.cycle_window
        frame = state.frame
        if frame is None:
            frame = state.frame = self._frame(state.ctx)
        verdicts = state.verdicts
        path = state.path(segment)
        gap_left = centroid(segment[insert_pos])
        gap_right = centroid(segment[insert_pos + 1])
        left_x, left_y = gap_left.x, gap_left.y
        right_x, right_y = gap_right.x, gap_right.y
        gap_len = path.hops[insert_pos]
        local_budget = gap_len + self.config.local_detour_slack_m
        # Travel-distance budget: the whole imputed path may not be longer
        # than the maximum speed allows within the segment's time span —
        # the same bound as the position ellipse, applied to arc length.
        # Without it, the search can zig-zag arbitrarily inside the
        # ellipse and "close" a gap with a physically impossible path.
        length_budget = frame.distance_sum
        length_without_gap = path.length - gap_len
        # Rejections are tallied locally and handed to the state once per
        # call, keeping the per-candidate loop free of shared writes.
        n_special = n_ellipse = n_detour = n_length = n_cone = n_cycle = 0
        out: list[TokenProb] = []
        for token, prob in candidates:
            if 0 <= token < num_special:  # Vocabulary.is_special, inlined
                n_special += 1
                continue
            verdict = verdicts.get(token)
            if verdict is None:
                c = centroid(token)
                verdict = verdicts[token] = _Verdict(c, frame.within_speed_ellipse(c))
            if not verdict.in_ellipse:
                n_ellipse += 1
                continue
            c = verdict.centroid
            x, y = c.x, c.y
            # c.distance_to(gap_left) / c.distance_to(gap_right), inlined.
            to_left = hypot(x - left_x, y - left_y)
            to_right = hypot(x - right_x, y - right_y)
            if to_left + to_right > local_budget:
                n_detour += 1
                continue
            if length_without_gap + to_left + to_right > length_budget:
                n_length += 1
                continue
            in_cone = verdict.in_cone
            if in_cone is None:
                in_cone = verdict.in_cone = frame.violates_direction(c)
            if in_cone:
                n_cone += 1
                continue
            if creates_cycle(segment, insert_pos, token, cycle_window):
                n_cycle += 1
                continue
            out.append((token, prob))
        state.tally(
            len(candidates), (n_special, n_ellipse, n_detour, n_length, n_cone, n_cycle)
        )
        return out


class PassthroughConstraints(SpatialConstraints):
    """Ablation variant (Fig. 12-VI "No Const."): accept any prediction.

    Only special tokens and immediate self-repetition are still rejected —
    without the latter, iterative calling would loop forever on its own
    output, which the paper's "trivial cycle" rejection exists to prevent
    even in the ablated system.
    """

    def _apply(
        self,
        candidates: Sequence[TokenProb],
        segment: Sequence[int],
        insert_pos: int,
        state: SegmentSearch,
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
        state.tally(len(candidates), (n_special, 0, 0, 0, 0, n_cycle))
        return out
