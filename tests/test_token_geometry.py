"""Token geometry is computed once — and comes out the same floats.

The tokenizer keeps a token-id -> centroid table, ``filter`` works out
what no candidate changes once per segment (the ``SegmentSearch`` it is
handed) and reports its tallies once per segment too. None of it may
alter a decision or a count, so the bodies they replaced are kept here as
the reference: every surviving ``(token, prob)``, every rejection tally
and every ``creates_cycle`` answer must be *identical* (``==`` on floats, no
tolerance — the arithmetic is unchanged, only how often it runs).
"""

import itertools
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import Kamel, KamelConfig
from repro.core.constraints import (
    _REJECTION_COUNTERS,
    CONE_HALF_ANGLE_RAD,
    CYCLE_WINDOW,
    ELLIPSE_MIN_SUM_M,
    LOCAL_DETOUR_SLACK_M,
    SPEED_SLACK,
    GapContext,
    PassthroughConstraints,
    SegmentSearch,
    SpatialConstraints,
    _SegmentFrame,
    creates_cycle,
)
from repro.core import tokenization
from repro.core.tokenization import Tokenizer, make_grid
from repro.errors import ConfigError, VocabularyError
from repro.geo import Point, Trajectory
from repro.geo.point import angle_difference
from repro.grid import HexGrid
from repro.obs.metrics import MetricsRegistry, set_registry

MAX_SPEED_MPS = 15.0


# -- the bodies this change replaced, kept as the reference ---------------------


def parent_creates_cycle(tokens, insert_pos, candidate, window):
    new = list(tokens[: insert_pos + 1]) + [candidate] + list(tokens[insert_pos + 1 :])
    inserted_at = insert_pos + 1
    n = len(new)
    for block in range(1, window + 1):
        lo = max(0, inserted_at - 2 * block + 1)
        hi = min(inserted_at, n - 2 * block)
        for start in range(lo, hi + 1):
            first = new[start : start + block]
            second = new[start + block : start + 2 * block]
            if first == second:
                return True
    return False


class ParentConstraints:
    """``SpatialConstraints`` as it stood before the table and the frame:
    every centroid re-derived from the grid, every invariant per candidate."""

    def __init__(self, tokenizer, max_speed_mps):
        self.tokenizer = tokenizer
        self.max_speed_mps = max_speed_mps

    def _centroid(self, token):
        return self.tokenizer.grid.centroid(self.tokenizer.cell_of_token(token))

    def ellipse_distance_sum(self, ctx):
        s_pt = self._centroid(ctx.source)
        d_pt = self._centroid(ctx.dest)
        straight = s_pt.distance_to(d_pt)
        floor = max(
            ELLIPSE_MIN_SUM_M,
            straight + 2.0 * self.tokenizer.grid.centroid_spacing_m,
        )
        if ctx.source_time is None or ctx.dest_time is None:
            return floor
        time_diff = abs(ctx.dest_time - ctx.source_time)
        return max(floor, self.max_speed_mps * time_diff * SPEED_SLACK)

    def within_speed_ellipse(self, candidate, ctx):
        c = self._centroid(candidate)
        s_pt = self._centroid(ctx.source)
        d_pt = self._centroid(ctx.dest)
        return c.distance_to(s_pt) + c.distance_to(d_pt) <= self.ellipse_distance_sum(ctx)

    def _in_cone(self, apex, toward, candidate_pt):
        d = apex.distance_to(candidate_pt)
        if d == 0.0:
            return False
        return (
            angle_difference(apex.bearing_to(candidate_pt), apex.bearing_to(toward))
            <= CONE_HALF_ANGLE_RAD
        )

    def violates_direction(self, candidate, ctx):
        c = self._centroid(candidate)
        if ctx.prev_token is not None:
            apex = self._centroid(ctx.source)
            toward = self._centroid(ctx.prev_token)
            if apex.distance_to(toward) > 0 and self._in_cone(apex, toward, c):
                return True
        if ctx.next_token is not None:
            apex = self._centroid(ctx.dest)
            toward = self._centroid(ctx.next_token)
            if apex.distance_to(toward) > 0 and self._in_cone(apex, toward, c):
                return True
        return False

    def _segment_length(self, segment):
        centroids = [self._centroid(t) for t in segment]
        return sum(a.distance_to(b) for a, b in zip(centroids, centroids[1:]))


def parent_filter(predicates, cycle, candidates, ctx, segment, insert_pos):
    """The parent's ``filter`` loop over ``predicates`` (an object with the
    three public predicates) and ``cycle``; returns (survivors, tallies)."""
    ref = ParentConstraints(predicates.tokenizer, predicates.max_speed_mps)
    vocab = ref.tokenizer.vocabulary
    gap_left = ref._centroid(segment[insert_pos])
    gap_right = ref._centroid(segment[insert_pos + 1])
    local_budget = gap_left.distance_to(gap_right) + LOCAL_DETOUR_SLACK_M
    length_budget = predicates.ellipse_distance_sum(ctx)
    current_length = ref._segment_length(segment)
    rejected = dict.fromkeys(_REJECTION_COUNTERS, 0)
    out = []
    for token, prob in candidates:
        if vocab.is_special(token):
            rejected["special"] += 1
            continue
        if not predicates.within_speed_ellipse(token, ctx):
            rejected["speed_ellipse"] += 1
            continue
        c = ref._centroid(token)
        if c.distance_to(gap_left) + c.distance_to(gap_right) > local_budget:
            rejected["local_detour"] += 1
            continue
        new_length = (
            current_length
            - gap_left.distance_to(gap_right)
            + c.distance_to(gap_left)
            + c.distance_to(gap_right)
        )
        if new_length > length_budget:
            rejected["length_budget"] += 1
            continue
        if predicates.violates_direction(token, ctx):
            rejected["direction_cone"] += 1
            continue
        if cycle(segment, insert_pos, token, CYCLE_WINDOW):
            rejected["cycle"] += 1
            continue
        out.append((token, prob))
    return out, rejected


def parent_passthrough_filter(tokenizer, candidates, segment, insert_pos):
    vocab = tokenizer.vocabulary
    rejected = dict.fromkeys(_REJECTION_COUNTERS, 0)
    out = []
    for token, prob in candidates:
        if vocab.is_special(token):
            rejected["special"] += 1
            continue
        if parent_creates_cycle(segment, insert_pos, token, 1):
            rejected["cycle"] += 1
            continue
        out.append((token, prob))
    return out, rejected


def parent_record_filter(registry, n_in, n_out, rejected):
    """``_record_filter`` as every filter call ran it before the tallies
    moved into the per-segment state: five registry round trips per call.
    ``rejected`` is keyed by reason."""
    registry.counter("repro.constraints.candidates_in_total").inc(n_in)
    registry.counter("repro.constraints.candidates_out_total").inc(n_out)
    for reason in _REJECTION_COUNTERS:
        if rejected[reason]:
            registry.counter(f"repro.constraints.rejected.{reason}_total").inc(rejected[reason])


def constraint_books(registry):
    """Every ``repro.constraints.*`` counter that exists."""
    return {
        name: registry.get(name).value
        for name in registry.names()
        if name.startswith("repro.constraints.")
    }


def filter_with_tallies(constraints, candidates, ctx, segment, insert_pos):
    """Run the real ``filter`` against a registry of its own and read back
    what it flushed: (survivors, per-reason tallies, in, out)."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        out = constraints.filter(candidates, ctx, segment, insert_pos)
    finally:
        set_registry(previous)

    def value(name):
        metric = registry.get(f"repro.constraints.{name}_total")
        return 0 if metric is None else metric.value

    tallies = {reason: value(f"rejected.{reason}") for reason in _REJECTION_COUNTERS}
    return out, tallies, value("candidates_in"), value("candidates_out")


# -- random worlds ---------------------------------------------------------------


@st.composite
def filter_cases(draw):
    """A tokenizer over a random vocabulary, a context, a segment and a
    candidate list that holds every awkward token at least once."""
    grid_type = draw(st.sampled_from(["hex", "square"]))
    cells = draw(
        st.lists(
            st.tuples(st.integers(-7, 7), st.integers(-7, 7)),
            min_size=4, max_size=24, unique=True,
        )
    )
    tokenizer = Tokenizer(make_grid(grid_type, 75.0))
    real = [tokenizer.vocabulary.add(cell) for cell in cells]
    token = st.sampled_from(real)
    optional_token = st.one_of(st.none(), token)

    source, dest = draw(token), draw(token)
    prev_token, next_token = draw(optional_token), draw(optional_token)
    timed = draw(st.booleans())
    ctx = GapContext(
        source=source,
        dest=dest,
        source_time=draw(st.floats(0.0, 1e4)) if timed else None,
        dest_time=draw(st.floats(0.0, 1e4)) if timed else None,
        prev_token=prev_token,
        next_token=next_token,
    )
    interior = draw(st.lists(token, min_size=0, max_size=10))
    segment = (source, *interior, dest)

    drawn = draw(
        st.lists(
            st.tuples(st.integers(0, len(tokenizer.vocabulary) - 1), st.floats(0.0, 1.0)),
            min_size=0, max_size=20,
        )
    )
    # Specials, the cone apexes and their references, and a duplicate.
    forced = [0, 2, source, dest, *(t for t in (prev_token, next_token) if t is not None)]
    candidates = drawn + [(t, 0.5) for t in forced] + drawn[:1]
    return tokenizer, ctx, segment, candidates


class TestFilterMatchesParent:
    @settings(max_examples=150, deadline=None)
    @given(case=filter_cases())
    def test_spatial(self, case):
        tokenizer, ctx, segment, candidates = case
        constraints = SpatialConstraints(tokenizer, MAX_SPEED_MPS)
        parent = ParentConstraints(tokenizer, MAX_SPEED_MPS)
        for insert_pos in range(len(segment) - 1):
            got = filter_with_tallies(constraints, candidates, ctx, segment, insert_pos)
            # ... the parent's filter over the parent's own predicates,
            expected = parent_filter(
                parent, parent_creates_cycle, candidates, ctx, segment, insert_pos
            )
            assert got[:2] == expected
            # ... and the same loop composed of today's public predicates.
            assert got[:2] == parent_filter(
                constraints, creates_cycle, candidates, ctx, segment, insert_pos
            )
            assert got[2:] == (len(candidates), len(expected[0]))

    @settings(max_examples=60, deadline=None)
    @given(case=filter_cases())
    def test_passthrough(self, case):
        tokenizer, ctx, segment, candidates = case
        constraints = PassthroughConstraints(tokenizer, MAX_SPEED_MPS)
        for insert_pos in range(len(segment) - 1):
            got = filter_with_tallies(constraints, candidates, ctx, segment, insert_pos)
            expected = parent_passthrough_filter(tokenizer, candidates, segment, insert_pos)
            assert got[:2] == expected
            assert got[2:] == (len(candidates), len(expected[0]))

    @settings(max_examples=60, deadline=None)
    @given(case=filter_cases())
    def test_public_predicates(self, case):
        tokenizer, ctx, _, candidates = case
        constraints = SpatialConstraints(tokenizer, MAX_SPEED_MPS)
        parent = ParentConstraints(tokenizer, MAX_SPEED_MPS)
        assert constraints.ellipse_distance_sum(ctx) == parent.ellipse_distance_sum(ctx)
        for token, _ in candidates:
            if tokenizer.vocabulary.is_special(token):
                continue
            assert constraints.within_speed_ellipse(token, ctx) == (
                parent.within_speed_ellipse(token, ctx)
            )
            assert constraints.violates_direction(token, ctx) == (
                parent.violates_direction(token, ctx)
            )

    def test_one_call_hits_every_reason(self):
        """Not a vacuous property: a corridor where each of the six reasons
        rejects at least one candidate, tallied the same by both."""
        tokenizer = Tokenizer(make_grid("hex", 75.0))

        def at(x, y):
            return tokenizer.vocabulary.add(tokenizer.grid.cell_of(Point(x, y)))

        # S and D 1200 m apart, 80 s: the ellipse and length bound is 1500 m.
        # The segment so far bends north through ``bend``; the gap S..bend
        # is being filled, and the vehicle reached S from the north.
        s, bend, d = at(0.0, 0.0), at(600.0, 300.0), at(1200.0, 0.0)
        came_from, far = at(0.0, 300.0), at(9000.0, 9000.0)
        past_bend = at(1000.0, 150.0)     # in the ellipse, far from this gap
        south = at(300.0, -150.0)         # small detour, but the path is bent already
        toward_north = at(65.0, 112.0)    # back the way the vehicle came
        good = at(300.0, 150.0)
        constraints = SpatialConstraints(tokenizer, MAX_SPEED_MPS)
        ctx = GapContext(s, d, 0.0, 80.0, prev_token=came_from)
        segment, insert_pos = (s, bend, d), 0
        candidates = [
            (1, 0.9), (far, 0.8), (past_bend, 0.7), (south, 0.6),
            (toward_north, 0.5), (bend, 0.4), (good, 0.3),
        ]
        out, tallies, n_in, n_out = filter_with_tallies(
            constraints, candidates, ctx, segment, insert_pos
        )
        assert (out, tallies) == parent_filter(
            ParentConstraints(tokenizer, MAX_SPEED_MPS), parent_creates_cycle,
            candidates, ctx, segment, insert_pos,
        )
        assert out == [(good, 0.3)]
        assert tallies == dict.fromkeys(_REJECTION_COUNTERS, 1)
        assert (n_in, n_out) == (7, 1)


@st.composite
def search_cases(draw):
    """One context and a run of filter calls under it: other partial
    segments, other gaps, other windows of one candidate pool — what the
    calls of one segment's search look like to ``filter``."""
    tokenizer, ctx, segment, candidates = draw(filter_cases())
    real = list(tokenizer.vocabulary.real_token_ids())
    calls = [(segment, 0, candidates)]
    for _ in range(draw(st.integers(1, 8))):
        interior = draw(st.lists(st.sampled_from(real), min_size=0, max_size=8))
        seg = (ctx.source, *interior, ctx.dest)
        insert_pos = draw(st.integers(0, len(seg) - 2))
        lo = draw(st.integers(0, len(candidates)))
        hi = draw(st.integers(lo, len(candidates)))
        calls.append((seg, insert_pos, candidates[lo:hi]))
    return tokenizer, ctx, calls


def run_both_ways(constraints, reference_filter, ctx, calls):
    """Every call through one ``SegmentSearch`` flushed at the end, against
    ``reference_filter`` reporting itself call by call the parent's way.
    Returns (books of the state's flush, books of the parent)."""
    registry, expected_registry = MetricsRegistry(), MetricsRegistry()
    previous = set_registry(registry)
    try:
        with SegmentSearch(ctx, constraints.tokenizer) as search:
            for segment, insert_pos, candidates in calls:
                got = constraints.filter(candidates, ctx, segment, insert_pos, search)
                out, rejected = reference_filter(candidates, segment, insert_pos)
                assert got == out
                parent_record_filter(expected_registry, len(candidates), len(out), rejected)
            assert constraint_books(registry) == {}  # nothing before the flush
    finally:
        set_registry(previous)
    return constraint_books(registry), constraint_books(expected_registry)


class TestSegmentStateMatchesParentPerCall:
    """A whole segment's calls through one state: survivors call by call,
    then — once flushed — counter totals and which counters exist at all,
    as the parent's per-call body left them."""

    @settings(max_examples=150, deadline=None)
    @given(case=search_cases())
    def test_spatial(self, case):
        tokenizer, ctx, calls = case
        constraints = SpatialConstraints(tokenizer, MAX_SPEED_MPS)
        parent = ParentConstraints(tokenizer, MAX_SPEED_MPS)

        def reference(candidates, segment, insert_pos):
            return parent_filter(
                parent, parent_creates_cycle, candidates, ctx, segment, insert_pos
            )

        got, expected = run_both_ways(constraints, reference, ctx, calls)
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(case=search_cases())
    def test_passthrough(self, case):
        tokenizer, ctx, calls = case
        constraints = PassthroughConstraints(tokenizer, MAX_SPEED_MPS)

        def reference(candidates, segment, insert_pos):
            return parent_passthrough_filter(tokenizer, candidates, segment, insert_pos)

        got, expected = run_both_ways(constraints, reference, ctx, calls)
        assert got == expected

    def test_cone_verdict_waits_for_a_gap_that_reaches_it(self, monkeypatch):
        """The corridor of ``test_one_call_hits_every_reason``: a token in
        the cone behind S is first offered at the far gap, where the detour
        test turns it away before the cone test runs; offered at the near
        gap it reaches the cone test, and from then on the verdict stands."""
        tokenizer = Tokenizer(make_grid("hex", 75.0))

        def at(x, y):
            return tokenizer.vocabulary.add(tokenizer.grid.cell_of(Point(x, y)))

        s, bend, d = at(0.0, 0.0), at(600.0, 300.0), at(1200.0, 0.0)
        came_from, toward_north = at(0.0, 300.0), at(65.0, 112.0)
        constraints = SpatialConstraints(tokenizer, MAX_SPEED_MPS)
        parent = ParentConstraints(tokenizer, MAX_SPEED_MPS)
        ctx = GapContext(s, d, 0.0, 80.0, prev_token=came_from)
        segment = (s, bend, d)
        candidates = [(toward_north, 0.5)]
        cone_tests = []
        real_cone_test = _SegmentFrame.violates_direction
        monkeypatch.setattr(
            _SegmentFrame,
            "violates_direction",
            lambda frame, c: cone_tests.append(c) or real_cone_test(frame, c),
        )
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            with SegmentSearch(ctx, tokenizer) as search:
                steps = ((1, "local_detour", None, 0), (0, "direction_cone", True, 1),
                         (0, "direction_cone", True, 1), (1, "local_detour", True, 1))
                for insert_pos, reason, in_cone, tested in steps:
                    assert constraints.filter(candidates, ctx, segment, insert_pos, search) == []
                    _, rejected = parent_filter(
                        parent, parent_creates_cycle, candidates, ctx, segment, insert_pos
                    )
                    assert rejected == {**dict.fromkeys(_REJECTION_COUNTERS, 0), reason: 1}
                    verdict = search.verdicts[toward_north]
                    assert verdict.in_ellipse and verdict.in_cone is in_cone
                    assert len(cone_tests) == tested
        finally:
            set_registry(previous)
        assert constraint_books(registry) == {
            "repro.constraints.candidates_in_total": 4,
            "repro.constraints.candidates_out_total": 0,
            "repro.constraints.rejected.local_detour_total": 2,
            "repro.constraints.rejected.direction_cone_total": 2,
        }

    def test_state_of_another_context_is_refused(self):
        tokenizer = Tokenizer(make_grid("hex", 75.0))
        a, b, c = (tokenizer.vocabulary.add((q, 0)) for q in range(3))
        constraints = SpatialConstraints(tokenizer, MAX_SPEED_MPS)
        search = SegmentSearch(GapContext(a, c), tokenizer)
        with pytest.raises(ValueError):
            constraints.filter([(b, 0.5)], GapContext(a, b), (a, b), 0, search)
        # An equal context built separately is the same segment.
        assert constraints.filter([(b, 0.5)], GapContext(a, c), (a, c), 0, search) == [(b, 0.5)]


class TestCreatesCycleMatchesParent:
    @settings(max_examples=400, deadline=None)
    @given(
        tokens=st.lists(st.integers(3, 6), min_size=1, max_size=12),
        candidate=st.integers(3, 6),
        window=st.integers(1, 8),
        as_tuple=st.booleans(),
        data=st.data(),
    )
    def test_same_truth_table(self, tokens, candidate, window, as_tuple, data):
        insert_pos = data.draw(st.integers(0, len(tokens) - 1))
        seq = tuple(tokens) if as_tuple else tokens
        assert creates_cycle(seq, insert_pos, candidate, window) == (
            parent_creates_cycle(seq, insert_pos, candidate, window)
        )


class TestCreatesCycleExhaustively:
    def test_every_short_sequence(self):
        """Every sequence of length 2-7 over a 3-letter alphabet, at every
        insert position, with candidates 0-3 (3 is in no sequence, the
        others in only some) and windows 1, 2, 3 and 6: the early return
        on an absent candidate and the slice compares answer exactly as
        the parent body did, for a tuple and for a list."""
        cases = 0
        for length in range(2, 8):
            for word in itertools.product(range(3), repeat=length):
                for seq in (word, list(word)):
                    for insert_pos in range(length):
                        for candidate in range(4):
                            for window in (1, 2, 3, 6):
                                assert creates_cycle(seq, insert_pos, candidate, window) == (
                                    parent_creates_cycle(seq, insert_pos, candidate, window)
                                ), (seq, insert_pos, candidate, window)
                                cases += 1
        assert cases == 682_272


# -- the tokenizer's centroid table ------------------------------------------------


def _trip(points):
    return Trajectory("t", tuple(Point(x, y, float(i)) for i, (x, y) in enumerate(points)))


@pytest.mark.parametrize("grid_type", ["hex", "square"])
class TestCentroidTable:
    def test_entries_equal_the_grid(self, grid_type):
        tokenizer = Tokenizer(make_grid(grid_type, 75.0))
        grid = tokenizer.grid
        first = tokenizer.tokenize(_trip([(0, 0), (200, 0), (400, 100)]), grow=True)
        looked_up = {t: tokenizer.centroid_of_token(t) for t in first.tokens}
        # Tokens interned after the table already holds entries.
        later = tokenizer.tokenize(_trip([(0, 0), (-300, 250), (900, -40)]), grow=True)
        assert set(later.tokens) - set(first.tokens)
        for t in tokenizer.vocabulary.real_token_ids():
            expected = grid.centroid(tokenizer.cell_of_token(t))
            assert tokenizer.centroid_of_token(t) == expected
            assert tokenizer.centroid_of_token(t) == expected  # and from the table
        for t, point in looked_up.items():
            assert tokenizer.centroid_of_token(t) == point

    def test_distance_is_the_grids(self, grid_type):
        tokenizer = Tokenizer(make_grid(grid_type, 75.0))
        seq = tokenizer.tokenize(_trip([(0, 0), (200, 30), (410, 100), (-75, 800)]), grow=True)
        for a in seq.tokens:
            for b in seq.tokens:
                assert tokenizer.token_distance_m(a, b) == tokenizer.grid.cell_distance_m(
                    tokenizer.cell_of_token(a), tokenizer.cell_of_token(b)
                )

    def test_typed_errors_first_and_again(self, grid_type):
        tokenizer = Tokenizer(make_grid(grid_type, 75.0))
        real = tokenizer.vocabulary.add((0, 0))
        for _ in range(2):
            for special in range(tokenizer.vocabulary.num_special):
                with pytest.raises(ConfigError):
                    tokenizer.centroid_of_token(special)
                with pytest.raises(ConfigError):
                    tokenizer.token_distance_m(real, special)
            for unknown in (-1, len(tokenizer.vocabulary), 10_000):
                with pytest.raises(VocabularyError):
                    tokenizer.centroid_of_token(unknown)
                with pytest.raises(VocabularyError):
                    tokenizer.token_distance_m(unknown, real)


class TestCentroidComputedOncePerToken:
    def test_fitting_and_imputing_a_feed(self, small_split, monkeypatch):
        """No timing in it: however many candidates the search weighs, the
        tokenizer asks the grid for a centroid at most once per token."""
        real_centroid = HexGrid.centroid
        asked = []

        def counting_centroid(grid, cell):
            # Count what the tokenizer asks for (centroid_of_token,
            # token_distance_m), not what other modules ask the grid.
            if sys._getframe(1).f_code.co_filename == tokenization.__file__:
                asked.append((grid, cell))
            return real_centroid(grid, cell)

        # Patched on the class so the fit is counted too: fit builds the grid.
        monkeypatch.setattr(HexGrid, "centroid", counting_centroid)
        train, test = small_split
        system = Kamel(KamelConfig(max_model_calls=600)).fit(train)
        feed = [t.sparsify(500.0) for t in test[:20]]
        results = [system.impute(t) for t in feed]
        assert sum(r.total_model_calls for r in results) > 300  # a real search ran

        def cells_asked():
            return [cell for grid, cell in asked if grid is system.tokenizer.grid]

        first_pass = cells_asked()
        assert 0 < len(first_pass) <= len(system.tokenizer.vocabulary)
        assert len(first_pass) == len(set(first_pass))
        assert [system.impute(t) for t in feed] == results
        assert cells_asked() == first_pass  # a second pass asks the grid nothing
