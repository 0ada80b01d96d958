"""Tests for the multipoint imputation strategies (paper Section 6).

A scripted fake model drives the algorithms deterministically: the world
is an east-west corridor of hexagon cells and the model proposes each
cell's east/west neighbours with configurable probabilities.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import KamelConfig
from repro.core.constraints import (
    GapContext,
    PassthroughConstraints,
    SegmentSearch,
    SpatialConstraints,
)
from repro.core.imputation import (
    BeamSearchImputer,
    IterativeImputer,
    SegmentImputation,
    SinglePointImputer,
    make_segment_imputer,
)
from repro.core.tokenization import Tokenizer, make_grid
from repro.geo import Point
from repro.grid import HexGrid
from repro.mlm.base import MaskedModel, validate_mask_query
from repro.resilience.deadline import Deadline


class CorridorModel(MaskedModel):
    """Proposes spatial neighbours of the masked position's left anchor.

    The corridor's token ids are interned in a Tokenizer; predictions are
    the cells adjacent (in the grid) to the left neighbour token, weighted
    so the eastward continuation wins.
    """

    def __init__(self, tokenizer: Tokenizer):
        self.tokenizer = tokenizer
        self._fitted = True

    def fit(self, sequences, vocab_size):
        return self

    @property
    def is_fitted(self):
        return True

    @property
    def num_training_tokens(self):
        return 1

    def predict_masked(self, tokens, position, top_k=10):
        validate_mask_query(tokens, position)
        vocab = self.tokenizer.vocabulary
        anchor = tokens[position - 1] if position >= 1 else tokens[position + 1]
        if vocab.is_special(anchor):
            return []
        cell = self.tokenizer.cell_of_token(anchor)
        out = []
        # Eastward neighbour of a pointy-top hexagon: (+1, 0) axial.
        ranked = sorted(
            self.tokenizer.grid.neighbors(cell),
            key=lambda c: -self.tokenizer.grid.centroid(c).x,
        )
        probs = [0.4, 0.2, 0.15, 0.12, 0.08, 0.05]
        for c, p in zip(ranked, probs):
            if c in vocab:
                out.append((vocab.encode(c), p))
        return out[:top_k]


@pytest.fixture()
def world():
    tokenizer = Tokenizer(HexGrid(75.0))
    spacing = tokenizer.grid.centroid_spacing_m
    # Intern a corridor of 12 adjacent cells plus their neighbours.
    corridor = []
    base_cell = tokenizer.grid.cell_of(Point(0, 0))
    cell = base_cell
    for _ in range(12):
        corridor.append(tokenizer.vocabulary.add(cell))
        cell = (cell[0] + 1, cell[1])  # axial east neighbour
    for c in list(tokenizer.vocabulary)[3:]:
        for n in tokenizer.grid.neighbors(c):
            tokenizer.vocabulary.add(n)
    config = KamelConfig(max_speed_mps=20.0, top_k_candidates=6, beam_size=4)
    constraints = SpatialConstraints(tokenizer, config, max_speed_mps=20.0)
    model = CorridorModel(tokenizer)
    return tokenizer, config, constraints, model, corridor, spacing


# -- gap finding as it stood before the beam carried its gaps, the reference ---


def parent_gap_after(imputer, seg, i):
    return imputer.tokenizer.token_distance_m(seg[i], seg[i + 1]) > imputer.gap_threshold_m


def parent_find_first_gap(imputer, seg):
    for i in range(len(seg) - 1):
        if parent_gap_after(imputer, seg, i):
            return i
    return None


def parent_find_gaps(imputer, seg):
    return [i for i in range(len(seg) - 1) if parent_gap_after(imputer, seg, i)]


def open_gaps_of(imputer, seg):
    """What the imputer reads off a freshly measured path over ``seg``."""
    search = SegmentSearch(GapContext(seg[0], seg[-1]), imputer.tokenizer)
    return imputer.open_gaps(search.path(seg).hops)


def corridor_ctx(tokenizer, corridor, spacing, start=0, end=8):
    return GapContext(
        source=corridor[start],
        dest=corridor[end],
        source_time=0.0,
        dest_time=(end - start) * spacing / 10.0,
    )


class TestGapGeometry:
    def test_adjacent_cells_not_a_gap(self, world):
        tokenizer, config, constraints, model, corridor, _ = world
        imputer = IterativeImputer(model, tokenizer, constraints, config)
        assert open_gaps_of(imputer, [corridor[0], corridor[1]]) == ()

    def test_distant_cells_are_a_gap(self, world):
        tokenizer, config, constraints, model, corridor, _ = world
        imputer = IterativeImputer(model, tokenizer, constraints, config)
        assert open_gaps_of(imputer, [corridor[0], corridor[8]]) == (0,)

    def test_find_gaps_multiple(self, world):
        tokenizer, config, constraints, model, corridor, _ = world
        imputer = IterativeImputer(model, tokenizer, constraints, config)
        seg = [corridor[0], corridor[5], corridor[6], corridor[11]]
        assert open_gaps_of(imputer, seg) == (0, 2)
        assert parent_find_gaps(imputer, seg) == [0, 2]

    def test_gap_threshold_override(self, world):
        tokenizer, config, constraints, model, corridor, _ = world
        imputer = IterativeImputer(
            model, tokenizer, constraints, config, gap_threshold_m=400.0
        )
        # Cells three apart (~390 m) are no longer a gap.
        assert open_gaps_of(imputer, [corridor[0], corridor[3]]) == ()

    def test_query_embeds_context_tokens(self, world):
        tokenizer, config, constraints, model, corridor, _ = world
        imputer = IterativeImputer(model, tokenizer, constraints, config)
        ctx = GapContext(
            corridor[1], corridor[5], prev_token=corridor[0], next_token=corridor[6]
        )
        tokens, position = imputer._query((corridor[1], corridor[5]), 0, ctx)
        assert tokens[0] == corridor[0]
        assert tokens[-1] == corridor[6]
        assert position == 2


class TestIterative:
    def test_closes_corridor_gap(self, world):
        tokenizer, config, constraints, model, corridor, spacing = world
        imputer = IterativeImputer(model, tokenizer, constraints, config)
        result = imputer.impute_segment(corridor_ctx(tokenizer, corridor, spacing))
        assert not result.failed
        # The greedy east-walking model fills exactly the corridor between.
        assert list(result.interior) == corridor[1:8]
        assert result.model_calls == len(result.interior)

    def test_no_gap_returns_empty(self, world):
        tokenizer, config, constraints, model, corridor, spacing = world
        imputer = IterativeImputer(model, tokenizer, constraints, config)
        result = imputer.impute_segment(
            corridor_ctx(tokenizer, corridor, spacing, start=0, end=1)
        )
        assert not result.failed
        assert result.interior == ()

    def test_budget_exhaustion_fails(self, world):
        tokenizer, config, constraints, model, corridor, spacing = world
        tight = dataclasses.replace(config, max_model_calls=2)
        imputer = IterativeImputer(model, tokenizer, constraints, tight)
        result = imputer.impute_segment(corridor_ctx(tokenizer, corridor, spacing))
        assert result.failed
        assert result.model_calls <= 3

    def test_starved_candidates_fail(self, world):
        tokenizer, config, constraints, model, corridor, spacing = world

        class SilentModel(CorridorModel):
            def predict_masked(self, tokens, position, top_k=10):
                return []

        imputer = IterativeImputer(SilentModel(tokenizer), tokenizer, constraints, config)
        result = imputer.impute_segment(corridor_ctx(tokenizer, corridor, spacing))
        assert result.failed


class TestBeamSearch:
    def test_closes_corridor_gap(self, world):
        tokenizer, config, constraints, model, corridor, spacing = world
        imputer = BeamSearchImputer(model, tokenizer, constraints, config)
        result = imputer.impute_segment(corridor_ctx(tokenizer, corridor, spacing))
        assert not result.failed
        assert list(result.interior) == corridor[1:8]

    def test_beam_finds_higher_probability_than_greedy_trap(self, world):
        """Where greedy takes a locally best step into a dead end, beam
        search recovers via a lower-probability first step."""
        tokenizer, config, constraints, model, corridor, spacing = world

        class TrapModel(CorridorModel):
            """Top candidate is a northern detour cell that dead-ends."""

            def predict_masked(self, tokens, position, top_k=10):
                base = super().predict_masked(tokens, position, top_k)
                vocab = self.tokenizer.vocabulary
                anchor = tokens[position - 1]
                if vocab.is_special(anchor):
                    return base
                cell = self.tokenizer.cell_of_token(anchor)
                trap = (cell[0], cell[1] + 1)  # north-east neighbour
                if trap in vocab:
                    # After a trap cell, propose nothing (dead end).
                    prev_cell = None
                    if position >= 2 and not vocab.is_special(tokens[position - 2]):
                        prev_cell = self.tokenizer.cell_of_token(tokens[position - 2])
                    if prev_cell == (cell[0], cell[1] - 1):
                        return []
                    return [(vocab.encode(trap), 0.9)] + base
                return base

        trap_model = TrapModel(tokenizer)
        greedy = IterativeImputer(trap_model, tokenizer, constraints, config)
        beam = BeamSearchImputer(trap_model, tokenizer, constraints, config)
        ctx = corridor_ctx(tokenizer, corridor, spacing, end=6)
        beam_result = beam.impute_segment(ctx)
        greedy_result = greedy.impute_segment(ctx)
        assert not beam_result.failed
        # The answer must be a *valid* chain: every consecutive pair within
        # the gap threshold (the trap's pull cannot leave an open gap).
        full = [corridor[0], *beam_result.interior, corridor[6]]
        assert open_gaps_of(beam, full) == ()
        del greedy_result

    def test_length_normalization_monotone_in_alpha(self, world):
        tokenizer, config, constraints, model, corridor, _ = world
        imputer0 = BeamSearchImputer(
            model, tokenizer, constraints, dataclasses.replace(config, length_norm_alpha=0.0)
        )
        imputer1 = BeamSearchImputer(
            model, tokenizer, constraints, dataclasses.replace(config, length_norm_alpha=1.0)
        )
        seg = tuple(corridor[:4])
        assert imputer0._normalized(seg, 0.5) == pytest.approx(0.5)
        assert imputer1._normalized(seg, 0.5) == pytest.approx(1.0)  # 2 interior tokens

    def test_budget_exhaustion(self, world):
        tokenizer, config, constraints, model, corridor, spacing = world
        tight = dataclasses.replace(config, max_model_calls=1)
        imputer = BeamSearchImputer(model, tokenizer, constraints, tight)
        result = imputer.impute_segment(corridor_ctx(tokenizer, corridor, spacing))
        assert result.failed


class TestSinglePointAblation:
    def test_inserts_exactly_one_token(self, world):
        tokenizer, config, constraints, model, corridor, spacing = world
        imputer = SinglePointImputer(model, tokenizer, constraints, config)
        result = imputer.impute_segment(corridor_ctx(tokenizer, corridor, spacing))
        assert not result.failed
        assert len(result.interior) == 1
        assert result.model_calls == 1

    def test_no_gap_no_call(self, world):
        tokenizer, config, constraints, model, corridor, spacing = world
        imputer = SinglePointImputer(model, tokenizer, constraints, config)
        result = imputer.impute_segment(
            corridor_ctx(tokenizer, corridor, spacing, end=1)
        )
        assert result.interior == ()
        assert result.model_calls == 0


class TestFactory:
    def test_beam_default(self, world):
        tokenizer, config, constraints, model, _, _ = world
        assert isinstance(
            make_segment_imputer(model, tokenizer, constraints, config),
            BeamSearchImputer,
        )

    def test_iterative_selected(self, world):
        tokenizer, config, constraints, model, _, _ = world
        cfg = dataclasses.replace(config, imputer="iterative")
        assert isinstance(
            make_segment_imputer(model, tokenizer, constraints, cfg),
            IterativeImputer,
        )

    def test_ablation_overrides_strategy(self, world):
        tokenizer, config, constraints, model, _, _ = world
        cfg = dataclasses.replace(config, use_multipoint=False)
        assert isinstance(
            make_segment_imputer(model, tokenizer, constraints, cfg),
            SinglePointImputer,
        )


# -- batched rounds + candidate memo vs the scalar loops they replaced ---------


class SeededModel(MaskedModel):
    """Arbitrary but reproducible answers over a tiny vocabulary: up to
    ``top_k`` neighbours of the masked position's two anchors, weighted by
    a generator seeded from (seed, left, right). ``queries`` counts rows
    reaching the model, ``invocations`` calls of either method, and
    ``batch_lengths`` keeps the query lengths of each batch."""

    def __init__(self, tokenizer: Tokenizer, seed: int):
        self.tokenizer = tokenizer
        self.seed = seed
        self.queries = 0
        self.invocations = 0
        self.batch_lengths: list[set[int]] = []

    def fit(self, sequences, vocab_size):
        return self

    @property
    def is_fitted(self):
        return True

    @property
    def num_training_tokens(self):
        return 1

    def predict_masked(self, tokens, position, top_k=10):
        self.invocations += 1
        return self._answer(tokens, position, top_k)

    def predict_masked_batch(self, queries, top_k=10):
        self.invocations += 1
        self.batch_lengths.append({len(tokens) for tokens, _ in queries})
        return [self._answer(tokens, position, top_k) for tokens, position in queries]

    def _answer(self, tokens, position, top_k):
        validate_mask_query(tokens, position)
        self.queries += 1
        vocab, grid = self.tokenizer.vocabulary, self.tokenizer.grid
        left = tokens[position - 1] if position >= 1 else None
        right = tokens[position + 1] if position + 1 < len(tokens) else None
        rng = random.Random(f"{self.seed}/{left}/{right}")
        pool = sorted({
            vocab.encode(cell)
            for anchor in (left, right)
            if anchor is not None and not vocab.is_special(anchor)
            for cell in grid.neighbors(self.tokenizer.cell_of_token(anchor))
            if cell in vocab
        })
        chosen = rng.sample(pool, min(len(pool), top_k))
        weights = [rng.random() + 0.05 for _ in chosen]
        total = sum(weights) * (1.0 + rng.random())  # leave some mass unassigned
        return sorted(
            ((t, w / total) for t, w in zip(chosen, weights)), key=lambda tp: (-tp[1], tp[0])
        )


def _patch_world(model_seed, **config):
    """An 8 x 3 patch of hexagon cells, every one in the vocabulary."""
    tokenizer = Tokenizer(HexGrid(75.0))
    tokens = {
        (q, r): tokenizer.vocabulary.add((q, r)) for q in range(8) for r in range(3)
    }
    cfg = KamelConfig(max_speed_mps=30.0, top_k_candidates=5, **config)
    constraints = SpatialConstraints(tokenizer, cfg, max_speed_mps=30.0)
    return tokenizer, cfg, constraints, SeededModel(tokenizer, model_seed), tokens


def _scalar_candidates(imputer, seg, i, ctx):
    tokens, position = imputer._query(seg, i, ctx)
    raw = imputer.model.predict_masked(
        tokens, position, top_k=imputer.config.top_k_candidates
    )
    return imputer.constraints.filter(raw, ctx, seg, i)


def _scalar_iterative(imputer, ctx):
    """Algorithm 1 as it ran before rounds: one model call per step."""
    seg = [ctx.source, ctx.dest]
    probs = []
    calls = 0
    probability = 1.0
    budget = imputer._call_budget(ctx)
    pointer = parent_find_first_gap(imputer, seg)
    while pointer is not None:
        if calls >= budget:
            return SegmentImputation(None, calls)
        candidates = _scalar_candidates(imputer, seg, pointer, ctx)
        calls += 1
        if not candidates:
            return SegmentImputation(None, calls)
        best_token, best_prob = candidates[0]
        probability *= best_prob
        seg.insert(pointer + 1, best_token)
        probs.insert(pointer, best_prob)
        pointer = parent_find_first_gap(imputer, seg)
    interior = tuple(seg[1:-1])
    normalized = probability * max(1, len(interior)) ** imputer.config.length_norm_alpha
    return SegmentImputation(
        interior, calls, confidence=min(1.0, normalized), point_confidences=tuple(probs)
    )


def parent_normalized(imputer, seg, prob):
    interior = max(1, len(seg) - 2)
    return prob * interior**imputer.config.length_norm_alpha


def _scalar_beam(imputer, ctx):
    """Algorithm 2 as it ran before rounds: one model call per (beam, gap),
    the budget tested before each."""
    cfg = imputer.config
    initial = (ctx.source, ctx.dest)
    first_gap = parent_find_first_gap(imputer, initial)
    if first_gap is None:
        return SegmentImputation((), 0, confidence=1.0)
    all_gaps = [(initial, 1.0, first_gap, ())]
    answers = []
    prob_limit = float("-inf")
    calls = 0
    budget = imputer._call_budget(ctx)
    while all_gaps:
        new_segments = []
        for beam_seg, beam_prob, pointer, beam_probs in all_gaps:
            if calls >= budget:
                break
            candidates = _scalar_candidates(imputer, beam_seg, pointer, ctx)
            calls += 1
            for token, p in candidates[: cfg.beam_size]:
                seg = beam_seg[: pointer + 1] + (token,) + beam_seg[pointer + 1 :]
                probs = beam_probs[:pointer] + (p,) + beam_probs[pointer:]
                new_segments.append((seg, beam_prob * p, probs))
        if calls >= budget and not new_segments:
            break
        new_segments.sort(key=lambda sp: -sp[1])
        survivors = [
            (seg, prob, probs)
            for seg, prob, probs in new_segments
            if parent_normalized(imputer, seg, prob) >= prob_limit
        ][: cfg.beam_size]
        all_gaps = []
        for seg, prob, probs in survivors:
            gaps = parent_find_gaps(imputer, seg)
            if not gaps:
                score = parent_normalized(imputer, seg, prob)
                answers.append((seg, score, probs))
                prob_limit = max(prob_limit, score)
            else:
                for g in gaps:
                    all_gaps.append((seg, prob, g, probs))
        if calls >= budget:
            break
    if not answers:
        return SegmentImputation(None, calls)
    best_seg, best_score, best_probs = max(answers, key=lambda sp: sp[1])
    return SegmentImputation(
        best_seg[1:-1], calls, confidence=min(1.0, best_score), point_confidences=best_probs
    )


class TestRoundsMatchScalarLoops:
    """One model invocation per round and a candidate memo change how the
    search is executed, never what it returns or what it is charged."""

    @settings(max_examples=120, deadline=None)
    @given(
        model_seed=st.integers(0, 10_000),
        beam_size=st.integers(1, 10),
        budget=st.integers(1, 60),
        end=st.integers(3, 7),
        with_context=st.booleans(),
    )
    def test_beam_search(self, model_seed, beam_size, budget, end, with_context):
        tokenizer, cfg, constraints, model, tokens = _patch_world(
            model_seed, beam_size=beam_size, max_model_calls=budget
        )
        ctx = GapContext(
            tokens[(0, 1)], tokens[(end, 1)], source_time=0.0, dest_time=60.0,
            next_token=tokens[(end, 0)] if with_context else None,
        )
        imputer = BeamSearchImputer(model, tokenizer, constraints, cfg)
        expected = _scalar_beam(imputer, ctx)
        scalar_queries = model.queries
        model.queries = model.invocations = 0

        got = imputer.impute_segment(ctx)

        assert got == expected  # interior, model_calls, confidence, point_confidences
        assert got.model_calls <= budget
        # Fewer rows reach the model (repeats come from the memo) ...
        assert model.queries <= scalar_queries == expected.model_calls
        # ... one invocation per round: a round inserts one token into every
        # beam, so a batch has one query length (what lets BERT stack it
        # unpadded) and each batch is one token longer than the last.
        assert model.invocations == len(model.batch_lengths)
        assert all(len(lengths) == 1 for lengths in model.batch_lengths)
        ordered = [min(lengths) for lengths in model.batch_lengths]
        assert ordered == sorted(set(ordered))

    @settings(max_examples=60, deadline=None)
    @given(
        model_seed=st.integers(0, 10_000),
        budget=st.integers(1, 12),
        end=st.integers(3, 7),
    )
    def test_iterative_and_single_point(self, model_seed, budget, end):
        tokenizer, cfg, constraints, model, tokens = _patch_world(
            model_seed, max_model_calls=budget
        )
        ctx = GapContext(tokens[(0, 1)], tokens[(end, 1)], source_time=0.0, dest_time=60.0)
        imputer = IterativeImputer(model, tokenizer, constraints, cfg)
        assert imputer.impute_segment(ctx) == _scalar_iterative(imputer, ctx)

        single = SinglePointImputer(model, tokenizer, constraints, cfg).impute_segment(ctx)
        first = _scalar_candidates(imputer, (ctx.source, ctx.dest), 0, ctx)
        assert single.model_calls == 1
        assert single.interior == ((first[0][0],) if first else None)

    def test_budget_cuts_a_round_in_the_middle(self):
        """Budget 7, beam 4: the first round asks 1 question and later rounds
        several, so the 7th falls inside a round and the rest of it is cut."""
        tokenizer, cfg, constraints, model, tokens = _patch_world(
            11, beam_size=4, max_model_calls=7
        )
        ctx = GapContext(tokens[(0, 1)], tokens[(7, 1)], source_time=0.0, dest_time=60.0)
        imputer = BeamSearchImputer(model, tokenizer, constraints, cfg)
        expected = _scalar_beam(imputer, ctx)
        assert expected.failed and expected.model_calls == 7  # the cut happened
        model.invocations = 0
        assert imputer.impute_segment(ctx) == expected
        assert model.invocations < 7

    def test_shared_memo_serves_a_second_run(self):
        tokenizer, cfg, constraints, model, tokens = _patch_world(3, beam_size=6)
        ctx = GapContext(tokens[(0, 1)], tokens[(6, 1)], source_time=0.0, dest_time=60.0)
        search = SegmentSearch(ctx, tokenizer)
        wide = BeamSearchImputer(model, tokenizer, constraints, cfg)
        first = wide.impute_segment(ctx, search=search)
        asked = model.queries
        narrow_cfg = dataclasses.replace(cfg, beam_size=2)
        narrow = BeamSearchImputer(model, tokenizer, constraints, narrow_cfg)
        second = narrow.impute_segment(ctx, search=search)
        # The narrow search walks a subset of the wide one's partial segments.
        assert model.queries == asked
        assert second.model_calls > 0
        assert second == _scalar_beam(narrow, ctx)
        assert first == _scalar_beam(wide, ctx)

    def test_memo_holds_filtered_candidates(self):
        tokenizer, cfg, constraints, model, tokens = _patch_world(3)
        ctx = GapContext(tokens[(0, 1)], tokens[(5, 1)], source_time=0.0, dest_time=60.0)
        search = SegmentSearch(ctx, tokenizer)
        imputer = BeamSearchImputer(model, tokenizer, constraints, cfg)
        imputer.impute_segment(ctx, search=search)
        assert search.answers
        for (path, i), stored in search.answers.items():
            assert search.paths[path.tokens] is path  # one path per token tuple
            assert stored == _scalar_candidates(imputer, path.tokens, i, ctx)

    def test_answers_are_dropped_when_the_model_changes(self):
        """Geometry outlives a change of model, answers do not: the second
        model is asked every question again and gets its own answers."""
        tokenizer, cfg, constraints, model, tokens = _patch_world(3, beam_size=3)
        other = SeededModel(tokenizer, 4)
        ctx = GapContext(tokens[(0, 1)], tokens[(6, 1)], source_time=0.0, dest_time=60.0)
        search = SegmentSearch(ctx, tokenizer)
        first = BeamSearchImputer(model, tokenizer, constraints, cfg).impute_segment(
            ctx, search=search.asking(model)
        )
        answered, measured = search.answers, dict(search.paths)
        second_imputer = BeamSearchImputer(other, tokenizer, constraints, cfg)
        second = second_imputer.impute_segment(ctx, search=search.asking(other))
        assert search.answers is not answered and other.queries == second.model_calls
        assert second == _scalar_beam(second_imputer, ctx)
        assert first == _scalar_beam(BeamSearchImputer(model, tokenizer, constraints, cfg), ctx)
        # Asking the first model again is a new conversation too.
        assert search.asking(model).answers == {}
        for seg, path in measured.items():
            assert search.paths[seg] is path

    def test_deadline_checked_once_per_round(self):
        tokenizer, cfg, constraints, model, tokens = _patch_world(3, beam_size=5)
        ctx = GapContext(tokens[(0, 1)], tokens[(6, 1)], source_time=0.0, dest_time=60.0)

        checks = []
        deadline = Deadline(1e9, 1e9, clock=lambda: checks.append(1) or 0.0)
        result = BeamSearchImputer(model, tokenizer, constraints, cfg).impute_segment(
            ctx, deadline
        )
        # One clock read per round, memo-only rounds included.
        assert model.invocations <= len(checks) < result.model_calls


# -- what the beam carries vs measuring every partial segment whole ------------


def parent_segment_length(tokenizer, segment):
    """``SpatialConstraints._segment_length`` as ``filter`` called it per call."""
    centroids = [tokenizer.centroid_of_token(t) for t in segment]
    return sum(a.distance_to(b) for a, b in zip(centroids, centroids[1:]))


@st.composite
def insertion_walks(draw):
    """A grid, a vocabulary of scattered cells, a gap threshold, end tokens
    and a script of (which open gap, which token) insertions."""
    grid_type = draw(st.sampled_from(["hex", "square"]))
    cells = draw(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
            min_size=3, max_size=20, unique=True,
        )
    )
    tokenizer = Tokenizer(make_grid(grid_type, 75.0))
    real = [tokenizer.vocabulary.add(cell) for cell in cells]
    token = st.sampled_from(real)
    threshold = draw(st.floats(80.0, 600.0))
    script = draw(st.lists(st.tuples(st.integers(0, 50), token), min_size=1, max_size=14))
    return tokenizer, threshold, draw(token), draw(token), script


class TestCarriedGeometryMatchesRecomputation:
    """Hops, arc length and open gaps are carried from parent to child by
    the one insertion; each must be the *same float* (``==``, no tolerance)
    and the same positions a whole re-measurement gives, at every step."""

    @settings(max_examples=200, deadline=None)
    @given(walk=insertion_walks())
    def test_random_insertion_walks(self, walk):
        tokenizer, threshold, source, dest, script = walk
        config = KamelConfig()
        constraints = SpatialConstraints(tokenizer, config, max_speed_mps=20.0)
        imputer = BeamSearchImputer(
            CorridorModel(tokenizer), tokenizer, constraints, config, gap_threshold_m=threshold
        )
        search = SegmentSearch(GapContext(source, dest), tokenizer)
        path = search.path((source, dest))
        gaps = imputer.open_gaps(path.hops)
        for pick, token in script:
            assert list(gaps) == parent_find_gaps(imputer, path.tokens)
            assert path.length == parent_segment_length(tokenizer, path.tokens)
            assert path.hops == tuple(
                tokenizer.token_distance_m(a, b)
                for a, b in zip(path.tokens, path.tokens[1:])
            )
            # A state that never saw the parent measures the same path whole.
            fresh = SegmentSearch(search.ctx, tokenizer).path(path.tokens)
            assert (fresh.hops, fresh.length) == (path.hops, path.length)
            assert search.path(list(path.tokens)) is path
            if not gaps:
                break
            pointer = gaps[pick % len(gaps)]
            expected = path.tokens[: pointer + 1] + (token,) + path.tokens[pointer + 1 :]
            path = search.extend(path, pointer, token)
            assert path.tokens == expected
            gaps = imputer._gaps_after_insert(gaps, pointer, path.hops)
            assert gaps == imputer.open_gaps(path.hops)

    def test_insertion_orders_meet_in_one_path(self):
        tokenizer, cfg, constraints, model, tokens = _patch_world(1)
        s, a, b, d = tokens[(0, 1)], tokens[(2, 1)], tokens[(4, 1)], tokens[(6, 1)]
        search = SegmentSearch(GapContext(s, d), tokenizer)
        root = search.path((s, d))
        a_first = search.extend(search.extend(root, 0, a), 1, b)
        b_first = search.extend(search.extend(root, 0, b), 0, a)
        assert a_first is b_first and a_first.tokens == (s, a, b, d)


class TestAblationsGoThroughTheState:
    """The "No Const." / "No Multi." / iterative variants run on the same
    per-segment state as the default, with the results they always had."""

    @pytest.mark.parametrize("constraints_cls", [SpatialConstraints, PassthroughConstraints])
    @pytest.mark.parametrize("strategy", ["beam", "iterative", "single_point"])
    @pytest.mark.parametrize("model_seed", [3, 11, 29])
    def test_same_results_one_filter_call_per_query(self, constraints_cls, strategy, model_seed):
        tokenizer, cfg, _, model, tokens = _patch_world(
            model_seed, beam_size=3, max_model_calls=25,
            imputer="iterative" if strategy == "iterative" else "beam",
            use_multipoint=strategy != "single_point",
        )
        constraints = constraints_cls(tokenizer, cfg, max_speed_mps=30.0)
        ctx = GapContext(tokens[(0, 1)], tokens[(6, 1)], source_time=0.0, dest_time=60.0)
        imputer = make_segment_imputer(model, tokenizer, constraints, cfg)
        assert imputer.strategy_name == strategy
        if strategy == "beam":
            expected = _scalar_beam(imputer, ctx)
        elif strategy == "iterative":
            expected = _scalar_iterative(imputer, ctx)
        else:
            first = _scalar_candidates(imputer, (ctx.source, ctx.dest), 0, ctx)
            expected = SegmentImputation(
                (first[0][0],), 1, confidence=first[0][1], point_confidences=(first[0][1],)
            )
        model.queries = 0

        seen = []
        real_filter = constraints.filter

        def spying_filter(candidates, ctx, segment, insert_pos, state=None):
            seen.append(state)
            return real_filter(candidates, ctx, segment, insert_pos, state)

        constraints.filter = spying_filter
        search = SegmentSearch(ctx, tokenizer)
        assert imputer.impute_segment(ctx, search=search) == expected
        assert len(seen) == model.queries > 0
        assert all(state is search for state in seen)
