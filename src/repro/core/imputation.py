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
from repro.core.constraints import (
    Gap,
    GapContext,
    SegmentPath,
    SegmentSearch,
    SpatialConstraints,
)
from repro.core.tokenization import Tokenizer
from repro.mlm.base import MaskQuery, MaskedModel, TokenProb
from repro.obs import instrument as obs
from repro.obs.logging import get_logger
from repro.obs.tracing import span
from repro.resilience.deadline import Deadline

_log = get_logger("core.imputation")


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

    def open_gaps(self, hops: Sequence[float]) -> tuple[int, ...]:
        """Every position ``i`` whose hop (seg[i] to seg[i+1]) exceeds maxgap."""
        threshold = self.gap_threshold_m
        return tuple(i for i, hop in enumerate(hops) if hop > threshold)

    def _gaps_after_insert(
        self, gaps: tuple[int, ...], pointer: int, hops: Sequence[float]
    ) -> tuple[int, ...]:
        """``open_gaps(hops)`` for a segment that had ``gaps`` until a token
        went into its gap at ``pointer``: only the two hops that replaced
        that gap are tested, the gaps behind them move up by one."""
        threshold = self.gap_threshold_m
        at = gaps.index(pointer)
        new = tuple(i for i in (pointer, pointer + 1) if hops[i] > threshold)
        return gaps[:at] + new + tuple(g + 1 for g in gaps[at + 1 :])

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
        search: SegmentSearch,
    ) -> list[list[TokenProb]]:
        """One constrained model round: the first ``remaining`` of ``gaps``.

        This slice is the one place the call budget is applied: a round
        the budget cannot cover is cut mid-way, and a strategy notices by
        getting fewer answers than it asked for. Gaps ``search.answers``
        has not seen go to the model as a single ``predict_masked_batch``,
        and each raw answer through ``constraints.filter`` — the one way
        candidates reach a strategy.

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
        answers = search.answers
        missing = list(dict.fromkeys(gap for gap in gaps if gap not in answers))
        if len(missing) < len(gaps):
            obs.count("repro.imputation.memo_hits_total", len(gaps) - len(missing))
        if missing:
            # Attribute-free spans: this runs once per round, so the
            # disabled-tracing cost must stay at one branch, no kwargs dict.
            with span("model.predict"):
                raw = self.model.predict_masked_batch(
                    [self._query(path.tokens, i, ctx) for path, i in missing],
                    top_k=self.config.top_k_candidates,
                )
            obs.count("repro.imputation.model_invocations_total")
            with span("constraints.filter"):
                for gap, candidates in zip(missing, raw):
                    path, i = gap
                    answers[gap] = self.constraints.filter(
                        candidates, ctx, path.tokens, i, search
                    )
        return [answers[gap] for gap in gaps]

    # -- the instrumented front door ---------------------------------------

    strategy_name: str = "unknown"
    """Short id used in metric names and span attributes."""

    def impute_segment(
        self,
        ctx: GapContext,
        deadline: Optional[Deadline] = None,
        search: Optional[SegmentSearch] = None,
    ) -> SegmentImputation:
        """Fill the gap between ``ctx.source`` and ``ctx.dest``.

        Template method: runs the strategy's :meth:`_impute` inside an
        ``impute.segment`` span and records the per-segment metrics
        (strategy, model calls, budget consumption, failure) so every
        strategy is measured identically. ``deadline`` (when given) is
        checked between model rounds; an overrun propagates
        :class:`repro.errors.DeadlineExceeded` to the caller, whose
        degradation ladder converts it into a fallback. ``search`` is
        the segment's :class:`~repro.core.constraints.SegmentSearch` when
        the caller owns one — it carries geometry over from earlier runs
        on the same ``ctx``, and answers from those that asked the same
        model; without one, this run works on its own and flushes it,
        however the run ends.
        """
        if search is None:
            with SegmentSearch(ctx, self.tokenizer) as own:
                return self.impute_segment(ctx, deadline, own)
        budget = self._call_budget(ctx)
        with span("impute.segment", strategy=self.strategy_name) as sp:
            result = self._impute(ctx, budget, deadline, search)
            sp.set(
                model_calls=result.model_calls,
                budget=budget,
                failed=result.failed,
            )
        obs.count("repro.imputation.segments_total")
        obs.count(f"repro.imputation.{self.strategy_name}.segments_total")
        # The histogram's P² quantiles are *estimates* (a p50 of 47.98
        # calls is interpolation, not an observation); the counter is the
        # exact total tests/test_golden_counters.py pins.
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
        search: SegmentSearch,
    ) -> SegmentImputation:
        """The strategy body (metrics and spans handled by the caller).

        Every model question goes through :meth:`_candidates` with
        ``budget - calls`` as its ``remaining``; every partial segment is
        a :class:`~repro.core.constraints.SegmentPath` of ``search``, and
        its open gaps follow from the parent's by the one insertion.
        """


class IterativeImputer(SegmentImputer):
    """Algorithm 1: iterative greedy BERT calling."""

    strategy_name = "iterative"

    def _impute(
        self,
        ctx: GapContext,
        budget: int,
        deadline: Optional[Deadline],
        search: SegmentSearch,
    ) -> SegmentImputation:
        path = search.path((ctx.source, ctx.dest))
        gaps = self.open_gaps(path.hops)
        probs: list[float] = []
        calls = 0
        probability = 1.0
        while gaps:
            pointer = gaps[0]
            answered = self._candidates(
                [(path, pointer)], ctx, budget - calls, deadline, search
            )
            calls += len(answered)
            if not answered or not answered[0]:  # out of budget, or no candidate
                return SegmentImputation(None, calls)
            best_token, best_prob = answered[0][0]
            probability *= best_prob
            # Token position pointer+1 holds interior index pointer (the
            # source endpoint occupies position 0), so probs tracks interior.
            path = search.extend(path, pointer, best_token)
            probs.insert(pointer, best_prob)
            gaps = self._gaps_after_insert(gaps, pointer, path.hops)
        interior = path.tokens[1:-1]
        normalized = probability * max(1, len(interior)) ** self.config.length_norm_alpha
        return SegmentImputation(
            interior,
            calls,
            confidence=min(1.0, normalized),
            point_confidences=tuple(probs),
        )


@dataclass(slots=True)
class _Partial:
    """One partial segment under beam search, with what is known of it."""

    path: SegmentPath
    gaps: tuple[int, ...]
    """Its open gap positions; the next round asks about each."""
    prob: float
    probs: tuple[float, ...]
    """Per-interior-token probabilities, aligned with ``path.tokens[1:-1]``."""


class BeamSearchImputer(SegmentImputer):
    """Algorithm 2: bidirectional beam search with length normalization."""

    strategy_name = "beam"

    def _length_norm(self, n_tokens: int) -> float:
        """``|S|^alpha`` for a segment of ``n_tokens`` tokens, ends included."""
        return max(1, n_tokens - 2) ** self.config.length_norm_alpha

    def _normalized(self, seg: Sequence[int], prob: float) -> float:
        return prob * self._length_norm(len(seg))

    def _impute(
        self,
        ctx: GapContext,
        budget: int,
        deadline: Optional[Deadline],
        search: SegmentSearch,
    ) -> SegmentImputation:
        beam_size = self.config.beam_size
        root = search.path((ctx.source, ctx.dest))
        root_gaps = self.open_gaps(root.hops)
        if not root_gaps:
            return SegmentImputation((), 0, confidence=1.0)

        frontier: list[_Partial] = [_Partial(root, root_gaps, 1.0, ())]
        answers: list[tuple[tuple[int, ...], float, tuple[float, ...]]] = []
        prob_limit = float("-inf")
        calls = 0

        # A round asks about every open gap of every surviving partial
        # segment at once. When the budget cuts it short (or to nothing),
        # the search keeps what the answered gaps produce and then runs dry.
        while frontier:
            beams = [(partial, g) for partial in frontier for g in partial.gaps]
            answered = self._candidates(
                [(partial.path, g) for partial, g in beams],
                ctx, budget - calls, deadline, search,
            )
            calls += len(answered)
            # A child is its parent plus one token: kept as that until it
            # has survived the round, so only survivors are ever built.
            children: list[tuple[float, _Partial, int, int, float]] = []
            for (partial, pointer), candidates in zip(beams, answered):
                prob = partial.prob
                for token, p in candidates[:beam_size]:
                    children.append((prob * p, partial, pointer, token, p))

            # Keep the global top-B children, pruned against the best
            # completed normalized score so far. Every round inserts one
            # token into every survivor, so all children are equally long.
            children.sort(key=lambda child: -child[0])
            norm = self._length_norm(len(frontier[0].path.tokens) + 1)
            survivors = [child for child in children if child[0] * norm >= prob_limit]

            frontier = []
            for prob, partial, pointer, token, p in survivors[:beam_size]:
                path = search.extend(partial.path, pointer, token)
                gaps = self._gaps_after_insert(partial.gaps, pointer, path.hops)
                # Token position pointer+1 is interior index pointer.
                probs = partial.probs[:pointer] + (p,) + partial.probs[pointer:]
                if not gaps:
                    score = self._normalized(path.tokens, prob)
                    answers.append((path.tokens, score, probs))
                    prob_limit = max(prob_limit, score)
                else:
                    frontier.append(_Partial(path, gaps, prob, probs))

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
        search: SegmentSearch,
    ) -> SegmentImputation:
        path = search.path((ctx.source, ctx.dest))
        if not self.open_gaps(path.hops):
            return SegmentImputation((), 0, confidence=1.0)
        # The budget is at least one call (config validation), so the
        # single question is always answered.
        [candidates] = self._candidates([(path, 0)], ctx, budget, deadline, search)
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
