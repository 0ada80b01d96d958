"""Multipoint imputation (paper Section 6).

Fills a trajectory gap between two end tokens S and D with a sequence of
tokens such that no two consecutive tokens are further apart than
``maxgap``. Two strategies from the paper:

* :class:`IterativeImputer` — Algorithm 1: greedily insert the single most
  probable valid token at the first remaining gap, repeat.
* :class:`BeamSearchImputer` — Algorithm 2: bidirectional beam search over
  token insertions with length-normalized sequence probabilities
  ``P * |S|^alpha`` (Wu et al.'s length normalization, alpha = 1 default).

Both enforce a hard budget of model calls per gap; exhausting it without
closing every gap is a *failure*, and the caller falls back to a straight
line (which is exactly what the paper's failure-rate metric counts).

One reading note on Algorithm 2: the pseudocode line 19 updates the
completed-answer bound with ``Min``, but the worked example (Figure 7)
prunes against the *best* completed normalized score ("new lower bound is
0.36"); we follow the example and keep the maximum.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.config import KamelConfig
from repro.core.constraints import GapContext, SpatialConstraints
from repro.core.tokenization import Tokenizer
from repro.mlm.base import MaskQuery, MaskedModel, TokenProb
from repro.obs import instrument as obs
from repro.obs.logging import get_logger
from repro.obs.tracing import span
from repro.resilience.deadline import Deadline

_log = get_logger("core.imputation")

Gap = tuple[tuple[int, ...], int]
"""A question to the model: ``(segment so far, gap position in it)``."""

CandidateMemo = dict[Gap, list[TokenProb]]
"""Constrained candidates already computed for one segment, by gap.

An answer depends on the gap, the :class:`GapContext`, the model and
``top_k`` only — not on beam width or call budget — so one memo serves
every imputer run over the same segment with the same model (the ladder's
full and reduced-beam rungs), and within a run it answers the partial
segments that different insertion orders reach twice."""


@dataclass(frozen=True)
class SegmentImputation:
    """Result of imputing one segment: interior tokens (or None) + cost."""

    interior: Optional[tuple[int, ...]]
    model_calls: int
    confidence: Optional[float] = None
    """The strategy's own score for the returned sequence (see
    :attr:`repro.core.result.SegmentOutcome.confidence`)."""
    point_confidences: tuple[float, ...] = ()
    """Per-interior-token confidences, aligned with ``interior``: the
    model probability of the candidate chosen at each position (under the
    winning beam, for beam search). Empty for failed segments and for the
    trivial no-gap case; otherwise ``len == len(interior)``."""

    @property
    def failed(self) -> bool:
        return self.interior is None


class SegmentImputer(abc.ABC):
    """Shared machinery for the Section 6 strategies."""

    def __init__(
        self,
        model: MaskedModel,
        tokenizer: Tokenizer,
        constraints: SpatialConstraints,
        config: KamelConfig,
        gap_threshold_m: Optional[float] = None,
    ) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.constraints = constraints
        self.config = config
        # The distance above which two consecutive tokens form a gap:
        # ``maxgap`` from the config, floored at the grid's centroid
        # spacing. Two *adjacent* cells are never a gap (the paper's
        # Figure 6 counts gaps in token steps, and with 75 m hexagons the
        # 130 m centroid spacing already exceeds the 100 m default maxgap —
        # a literal meters-only test could never terminate).
        # :class:`repro.core.kamel` additionally floors this at the
        # training data's own token spacing: the model cannot produce
        # transitions finer than it ever observed, and the paper's metrics
        # measure distance to the imputed *polyline*, which is insensitive
        # to the spacing of points along it. Config and grid are fixed per
        # imputer, so it is worked out once, here, not per gap test.
        floor = max(config.maxgap_m, tokenizer.grid.centroid_spacing_m + 1e-6)
        self.gap_threshold_m = (
            floor if gap_threshold_m is None else max(floor, gap_threshold_m)
        )

    # -- gap geometry -----------------------------------------------------

    def _gap_after(self, seg: Sequence[int], i: int) -> bool:
        """Whether the distance between seg[i] and seg[i+1] exceeds maxgap."""
        return self.tokenizer.token_distance_m(seg[i], seg[i + 1]) > self.gap_threshold_m

    def find_first_gap(self, seg: Sequence[int]) -> Optional[int]:
        """Index ``i`` of the first pair (i, i+1) further apart than maxgap."""
        for i in range(len(seg) - 1):
            if self._gap_after(seg, i):
                return i
        return None

    def find_gaps(self, seg: Sequence[int]) -> list[int]:
        """All gap positions in ``seg``."""
        return [i for i in range(len(seg) - 1) if self._gap_after(seg, i)]

    # -- model interaction ---------------------------------------------------

    def _query(self, seg: Sequence[int], i: int, ctx: GapContext) -> MaskQuery:
        """The model input for predicting a token between seg[i], seg[i+1].

        The trajectory tokens surrounding the segment (t1 before S, t2
        after D) are included as extra context when known.
        """
        prefix = [ctx.prev_token] if ctx.prev_token is not None else []
        suffix = [ctx.next_token] if ctx.next_token is not None else []
        tokens = prefix + list(seg[: i + 1]) + [0] + list(seg[i + 1 :]) + suffix
        position = len(prefix) + i + 1
        return tokens, position

    def _call_budget(self, ctx: GapContext) -> int:
        """The model-call limit for this segment.

        The configured limit covers a ~1 km gap; longer gaps need
        proportionally more beam rounds, so the budget scales with the
        straight-line span (the paper's hard limit exists to bound cost,
        not to punish long gaps specifically). It counts *queries asked*:
        a row of a batch and a row served from the memo each cost one, so
        the same search spends the same budget however it is executed.
        """
        span = self.tokenizer.token_distance_m(ctx.source, ctx.dest)
        scale = max(1.0, span / 1000.0)
        return int(self.config.max_model_calls * scale)

    def _candidates(
        self,
        gaps: Sequence[Gap],
        ctx: GapContext,
        remaining: int,
        deadline: Optional[Deadline],
        memo: CandidateMemo,
    ) -> list[list[TokenProb]]:
        """One constrained model round: the first ``remaining`` of ``gaps``.

        This slice is the one place the call budget is applied: a round
        the budget cannot cover is cut mid-way, and a strategy notices by
        getting fewer answers than it asked for. Gaps the memo has not
        seen go to the model as a single ``predict_masked_batch``.

        The deadline is checked once, *before* the round — the expensive
        unit of work — so an overrun raises
        :class:`repro.errors.DeadlineExceeded` at most one round past the
        budget, never mid-search with unbounded slack.
        """
        gaps = gaps[:remaining]  # never negative: calls grow by answers given
        if not gaps:
            return []
        if deadline is not None:
            deadline.check("segment imputation")
        missing = list(dict.fromkeys(gap for gap in gaps if gap not in memo))
        if len(missing) < len(gaps):
            obs.count("repro.imputation.memo_hits_total", len(gaps) - len(missing))
        if missing:
            # Attribute-free spans: this runs once per round, so the
            # disabled-tracing cost must stay at one branch, no kwargs dict.
            with span("model.predict"):
                raw = self.model.predict_masked_batch(
                    [self._query(seg, i, ctx) for seg, i in missing],
                    top_k=self.config.top_k_candidates,
                )
            obs.count("repro.imputation.model_invocations_total")
            with span("constraints.filter"):
                for gap, candidates in zip(missing, raw):
                    memo[gap] = self.constraints.filter(candidates, ctx, *gap)
        return [memo[gap] for gap in gaps]

    # -- the instrumented front door ---------------------------------------

    strategy_name: str = "unknown"
    """Short id used in metric names and span attributes."""

    def impute_segment(
        self,
        ctx: GapContext,
        deadline: Optional[Deadline] = None,
        memo: Optional[CandidateMemo] = None,
    ) -> SegmentImputation:
        """Fill the gap between ``ctx.source`` and ``ctx.dest``.

        Template method: runs the strategy's :meth:`_impute` inside an
        ``impute.segment`` span and records the per-segment metrics
        (strategy, model calls, budget consumption, failure) so every
        strategy is measured identically. ``deadline`` (when given) is
        checked between model rounds; an overrun propagates
        :class:`repro.errors.DeadlineExceeded` to the caller, whose
        degradation ladder converts it into a fallback. ``memo`` carries
        answers over from an earlier run on the same ``ctx`` with the
        same model (see :data:`CandidateMemo`); without one, answers are
        shared within this run only.
        """
        budget = self._call_budget(ctx)
        if memo is None:
            memo = {}
        with span("impute.segment", strategy=self.strategy_name) as sp:
            result = self._impute(ctx, budget, deadline, memo)
            sp.set(
                model_calls=result.model_calls,
                budget=budget,
                failed=result.failed,
            )
        obs.count("repro.imputation.segments_total")
        obs.count(f"repro.imputation.{self.strategy_name}.segments_total")
        # The histogram's P² quantiles are *estimates* (a p50 of 47.98
        # calls is interpolation, not an observation); the counter is the
        # exact total the profiler's cost ledger reconciles against.
        obs.count("repro.imputation.model_calls_total", result.model_calls)
        obs.observe("repro.imputation.calls_per_segment", result.model_calls)
        if budget > 0:
            obs.observe(
                "repro.imputation.budget_consumed_ratio",
                min(1.0, result.model_calls / budget),
            )
        if result.failed:
            obs.count("repro.imputation.failures_total")
            if result.model_calls >= budget:
                obs.count("repro.imputation.budget_exhausted_total")
            # DEBUG detail behind the facade's fallback WARNING: which
            # strategy gave up and how much budget it burned, correlated
            # to the request by the trace id on the log record.
            _log.debug(
                "segment imputation failed",
                extra={"data": {
                    "strategy": self.strategy_name,
                    "model_calls": result.model_calls,
                    "budget": budget,
                }},
            )
        return result

    @abc.abstractmethod
    def _impute(
        self,
        ctx: GapContext,
        budget: int,
        deadline: Optional[Deadline],
        memo: CandidateMemo,
    ) -> SegmentImputation:
        """The strategy body (metrics and spans handled by the caller).

        Every model question goes through :meth:`_candidates` with
        ``budget - calls`` as its ``remaining``.
        """


class IterativeImputer(SegmentImputer):
    """Algorithm 1: iterative greedy BERT calling."""

    strategy_name = "iterative"

    def _impute(
        self,
        ctx: GapContext,
        budget: int,
        deadline: Optional[Deadline],
        memo: CandidateMemo,
    ) -> SegmentImputation:
        seg: list[int] = [ctx.source, ctx.dest]
        probs: list[float] = []
        calls = 0
        probability = 1.0
        pointer = self.find_first_gap(seg)
        while pointer is not None:
            answered = self._candidates(
                [(tuple(seg), pointer)], ctx, budget - calls, deadline, memo
            )
            calls += len(answered)
            if not answered or not answered[0]:  # out of budget, or no candidate
                return SegmentImputation(None, calls)
            best_token, best_prob = answered[0][0]
            probability *= best_prob
            # seg position pointer+1 holds interior index pointer (the
            # source endpoint occupies seg[0]), so probs tracks interior.
            seg.insert(pointer + 1, best_token)
            probs.insert(pointer, best_prob)
            pointer = self.find_first_gap(seg)
        interior = tuple(seg[1:-1])
        normalized = probability * max(1, len(interior)) ** self.config.length_norm_alpha
        return SegmentImputation(
            interior,
            calls,
            confidence=min(1.0, normalized),
            point_confidences=tuple(probs),
        )


@dataclass(frozen=True)
class _Beam:
    """One partial segment under beam search."""

    seg: tuple[int, ...]
    prob: float
    pointer: int
    """The gap position this beam entry will expand next."""
    probs: tuple[float, ...] = ()
    """Per-interior-token probabilities, aligned with ``seg[1:-1]``."""


class BeamSearchImputer(SegmentImputer):
    """Algorithm 2: bidirectional beam search with length normalization."""

    strategy_name = "beam"

    def _normalized(self, seg: Sequence[int], prob: float) -> float:
        interior = max(1, len(seg) - 2)
        return prob * interior**self.config.length_norm_alpha

    def _impute(
        self,
        ctx: GapContext,
        budget: int,
        deadline: Optional[Deadline],
        memo: CandidateMemo,
    ) -> SegmentImputation:
        cfg = self.config
        initial = (ctx.source, ctx.dest)
        first_gap = self.find_first_gap(initial)
        if first_gap is None:
            return SegmentImputation((), 0, confidence=1.0)

        all_gaps: list[_Beam] = [_Beam(initial, 1.0, first_gap)]
        answers: list[tuple[tuple[int, ...], float, tuple[float, ...]]] = []
        prob_limit = float("-inf")
        calls = 0

        # A round asks about every open gap of every surviving beam at
        # once. When the budget cuts it short (or to nothing), the search
        # keeps what the answered beams produce and then runs dry.
        while all_gaps:
            answered = self._candidates(
                [(beam.seg, beam.pointer) for beam in all_gaps],
                ctx, budget - calls, deadline, memo,
            )
            calls += len(answered)
            new_segments: list[tuple[tuple[int, ...], float, tuple[float, ...]]] = []
            for beam, candidates in zip(all_gaps, answered):
                for token, p in candidates[: cfg.beam_size]:
                    seg = (
                        beam.seg[: beam.pointer + 1]
                        + (token,)
                        + beam.seg[beam.pointer + 1 :]
                    )
                    # seg position pointer+1 is interior index pointer.
                    probs = (
                        beam.probs[: beam.pointer]
                        + (p,)
                        + beam.probs[beam.pointer :]
                    )
                    new_segments.append((seg, beam.prob * p, probs))

            # Keep the global top-B segments, pruned against the best
            # completed normalized score so far.
            new_segments.sort(key=lambda sp: -sp[1])
            survivors = [
                (seg, prob, probs)
                for seg, prob, probs in new_segments
                if self._normalized(seg, prob) >= prob_limit
            ][: cfg.beam_size]

            all_gaps = []
            for seg, prob, probs in survivors:
                gaps = self.find_gaps(seg)
                if not gaps:
                    score = self._normalized(seg, prob)
                    answers.append((seg, score, probs))
                    prob_limit = max(prob_limit, score)
                else:
                    for g in gaps:
                        all_gaps.append(_Beam(seg, prob, g, probs))

        if not answers:
            return SegmentImputation(None, calls)
        best_seg, best_score, best_probs = max(answers, key=lambda sp: sp[1])
        return SegmentImputation(
            best_seg[1:-1],
            calls,
            confidence=min(1.0, best_score),
            point_confidences=best_probs,
        )


class SinglePointImputer(SegmentImputer):
    """Ablation variant (Fig. 12-VI "No Multi."): one model call per gap.

    Inserts at most one token between S and D; if the gap is still wider
    than maxgap afterwards (it usually is), the remainder stays empty. A
    segment still counts as failed when even that single token cannot be
    produced, mirroring how the ablated system behaves in the paper (the
    recall drops because most of the gap is simply left unfilled).
    """

    strategy_name = "single_point"

    def _impute(
        self,
        ctx: GapContext,
        budget: int,
        deadline: Optional[Deadline],
        memo: CandidateMemo,
    ) -> SegmentImputation:
        seg = (ctx.source, ctx.dest)
        if self.find_first_gap(seg) is None:
            return SegmentImputation((), 0, confidence=1.0)
        # The budget is at least one call (config validation), so the
        # single question is always answered.
        [candidates] = self._candidates([(seg, 0)], ctx, budget, deadline, memo)
        if not candidates:
            return SegmentImputation(None, 1)
        return SegmentImputation(
            (candidates[0][0],),
            1,
            confidence=candidates[0][1],
            point_confidences=(candidates[0][1],),
        )


def make_segment_imputer(
    model: MaskedModel,
    tokenizer: Tokenizer,
    constraints: SpatialConstraints,
    config: KamelConfig,
    gap_threshold_m: Optional[float] = None,
) -> SegmentImputer:
    """Build the strategy selected by ``config`` (incl. ablation switch)."""
    if not config.use_multipoint:
        return SinglePointImputer(model, tokenizer, constraints, config, gap_threshold_m)
    if config.imputer == "iterative":
        return IterativeImputer(model, tokenizer, constraints, config, gap_threshold_m)
    return BeamSearchImputer(model, tokenizer, constraints, config, gap_threshold_m)
