"""The assembled KAMEL system (paper Figure 1).

:class:`Kamel` wires the five modules together behind a two-method API:

* :meth:`Kamel.fit` / :meth:`Kamel.add_training` — the training input path:
  tokenize, store, maintain the pyramid model repository, and build the
  detokenization cluster metadata;
* :meth:`Kamel.impute` — the sparse input path: tokenize, pick the right
  model from the repository, run multipoint imputation under spatial
  constraints, and detokenize.

A segment whose imputation cannot be served by the happy path descends an
explicit degradation ladder (:mod:`repro.resilience.ladder`): full beam
search → reduced beam width → the global counting fallback model →
straight line. Only the last rung counts as a *failure* (the paper's
failure-rate definition); every rung below the top counts as *degraded*,
and both the rung and the reason it was reached are recorded on the
segment's :class:`~repro.core.result.SegmentOutcome`. Any error a rung
raises — a failed model lookup or inference included — sends the segment
one rung down as ``rung_error``, and every impute call can carry a
:class:`~repro.resilience.deadline.Deadline` so a pathological gap
triggers fallback instead of hanging an online request.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.core.config import KamelConfig
from repro.core.constraints import (
    GapContext,
    PassthroughConstraints,
    SegmentSearch,
    SpatialConstraints,
)
from repro.core.detokenization import Detokenizer
from repro.core.imputation import (
    IterativeImputer,
    Search,
    SegmentImputation,
    make_segment_imputer,
    run_lockstep,
)
from repro.core.partitioning import ModelRepository, StoredModel
from repro.core.result import ImputationResult, Imputer, SegmentOutcome
from repro.core.store import TrajectoryStore
from repro.core.tokenization import Tokenizer, make_grid
from repro.errors import DeadlineExceeded, EmptyInputError, NotFittedError
from repro.geo import BoundingBox, Point, Trajectory, assign_times, linear_interior
from repro.mlm.base import MaskedModel
from repro.mlm.bert import BertMaskedLM, TrainingConfig
from repro.mlm.counting import CountingMaskedLM
from repro.mlm.vocab import Vocabulary
from repro.obs import instrument as obs
from repro.obs.logging import get_logger
from repro.obs.tracing import span, trace_scope
from repro.resilience import ladder
from repro.resilience.chaos import PipelineGuards
from repro.resilience.deadline import Deadline
from repro.resilience.ladder import (
    DEGRADED_BEAM_SIZE,
    DEGRADED_MAX_MODEL_CALLS,
    RUNG_COUNTING,
    RUNG_FULL,
    RUNG_LINEAR,
    RUNG_REDUCED_BEAM,
)
from repro.resilience.validate import validate_trajectory

_log = get_logger("core.kamel")


SPEED_PERCENTILE = 95.0


def infer_max_speed(trajectories: Iterable[Trajectory]) -> float:
    """The paper's "fixed speed inferred from training trajectory data".

    Uses the ``SPEED_PERCENTILE``-th percentile of observed point-to-point
    speeds, robust to GPS-noise spikes. Falls back to an urban 14 m/s when
    no timed segment exists.
    """
    speeds: list[float] = []
    for traj in trajectories:
        for a, b in traj.segments():
            if a.t is None or b.t is None or b.t <= a.t:
                continue
            speeds.append(a.distance_to(b) / (b.t - a.t))
    if not speeds:
        return 14.0
    return float(np.percentile(speeds, SPEED_PERCENTILE))


class Kamel(Imputer):
    """The scalable BERT-based trajectory imputation system."""

    def __init__(self, config: Optional[KamelConfig] = None) -> None:
        self.config = config or KamelConfig()
        self.tokenizer: Optional[Tokenizer] = None
        self.store: Optional[TrajectoryStore] = None
        self.repository: Optional[ModelRepository] = None
        self.detokenizer: Optional[Detokenizer] = None
        self.constraints: Optional[SpatialConstraints] = None
        self.max_speed_mps: Optional[float] = None
        self._global_model: Optional[MaskedModel] = None
        self._fallback_model: Optional[CountingMaskedLM] = None
        self._training_trajectories: list[Trajectory] = []
        self._gap_threshold_m: Optional[float] = None
        self._fitted = False
        self.rungs = ladder.rungs_for(self.config)
        # What each model rung searches with, built once: the reduced-beam
        # rung narrows beam and budget, the counting rung the budget.
        cfg = self.config
        degraded_calls = min(cfg.max_model_calls, DEGRADED_MAX_MODEL_CALLS)
        self._rung_configs = {
            RUNG_FULL: cfg,
            RUNG_REDUCED_BEAM: replace(
                cfg,
                beam_size=min(cfg.beam_size, DEGRADED_BEAM_SIZE),
                max_model_calls=degraded_calls,
            ),
            RUNG_COUNTING: replace(cfg, max_model_calls=degraded_calls),
        }
        self.guards = PipelineGuards()

    # -- training path ------------------------------------------------------

    def _model_factory(self) -> MaskedModel:
        cfg = self.config
        if cfg.model_backend == "bert":
            return BertMaskedLM(
                config=None,  # sized at fit() time from the vocabulary
                training=TrainingConfig(epochs=cfg.bert_epochs),
            )
        return CountingMaskedLM()

    def _build_components(
        self, cell_edge_m: float, vocabulary: Optional[Vocabulary] = None
    ) -> None:
        """Wire tokenizer, store, repository and detokenizer around one
        grid and one vocabulary (a restored one when loading, else new)."""
        cfg = self.config
        grid = make_grid(cfg.grid_type, cell_edge_m)
        self.tokenizer = Tokenizer(grid, vocabulary)
        self.store = TrajectoryStore(self.tokenizer)
        self.repository = ModelRepository(
            self.tokenizer, self.store, cfg, self._model_factory
        )
        self.detokenizer = Detokenizer(self.tokenizer)

    def fit(self, trajectories: Sequence[Trajectory]) -> "Kamel":
        """Train the system from scratch on ``trajectories``.

        Raises :class:`~repro.errors.EmptyInputError` when no trajectory
        has two points: there is no movement to learn from."""
        if not any(len(t) >= 2 for t in trajectories):
            raise EmptyInputError(
                "Kamel.fit needs a training trajectory of at least two points"
            )
        cfg = self.config
        with span("kamel.fit", trajectories=len(trajectories), backend=cfg.model_backend):
            with obs.stopwatch("repro.kamel.fit_seconds"):
                cell_edge = cfg.cell_edge_m
                if cfg.auto_tune_cell_size:
                    from repro.core.tuning import tune_cell_size  # avoid import cycle

                    cell_edge = tune_cell_size(list(trajectories), cfg)
                self._build_components(cell_edge)
                self._training_trajectories = []
                self._fitted = True
                self.add_training(trajectories)
        _log.info(
            "fit complete",
            extra={"data": {
                "trajectories": len(trajectories),
                "cell_edge_m": self.tokenizer.grid.edge_length_m,
                "vocabulary": len(self.tokenizer.vocabulary),
                "models": self.repository.num_models if self.repository else 0,
            }},
        )
        if cfg.use_partitioning and self.repository.num_models == 0:
            _log.warning(
                "the pyramid maintains no model: every lookup will miss and "
                "every segment falls to the fallback rung",
                extra={"data": {
                    "model_threshold_k": cfg.model_threshold_k,
                    "pyramid_root_extent_m": cfg.pyramid_root_extent_m,
                    "pyramid_height": cfg.pyramid_height,
                }},
            )
        return self

    def add_training(self, trajectories: Sequence[Trajectory]) -> None:
        """Ingest additional training data (the paper's enrichment path)."""
        if not self._fitted:
            raise NotFittedError("call fit() before add_training()")
        assert self.tokenizer and self.repository and self.detokenizer
        trajectories = [t for t in trajectories if len(t) >= 2]
        if not trajectories:
            return
        obs.count("repro.kamel.training_trajectories_total", len(trajectories))
        self._training_trajectories.extend(trajectories)

        cfg = self.config
        self.max_speed_mps = infer_max_speed(self._training_trajectories)
        sequences = self.tokenizer.tokenize_many(trajectories, grow=True)
        self._update_gap_threshold(sequences)
        if cfg.use_partitioning:
            self.repository.add_training(sequences)
        else:
            # Ablation: one model over everything (Fig. 12-VI "No Part.").
            assert self.store is not None
            self.store.add_many(sequences)
            model = self._model_factory()
            model.fit(
                [s.tokens for s in self.store], len(self.tokenizer.vocabulary)
            )
            self._global_model = model
        # Detokenization metadata is rebuilt over all data: DBSCAN results
        # are not incrementally mergeable and training is offline anyway.
        self.detokenizer.fit(self._training_trajectories)
        self._derive_state()

    def _derive_state(self) -> None:
        """Rebuild what the training data fixes but a saved system does not
        store: the constraints, from ``max_speed_mps``, and the counting
        rung's global model, from the store. The latter is O(tokens) to
        refit and is asked outside the repository lookup and the
        ``model.predict`` chaos site, so it serves when either fails."""
        assert self.tokenizer and self.store is not None and self.max_speed_mps
        constraints_cls = (
            SpatialConstraints if self.config.use_constraints else PassthroughConstraints
        )
        self.constraints = constraints_cls(self.tokenizer, self.max_speed_mps)
        fallback = CountingMaskedLM()
        fallback.fit([s.tokens for s in self.store], len(self.tokenizer.vocabulary))
        self._fallback_model = fallback

    def _update_gap_threshold(self, sequences) -> None:
        """Floor the gap test at the training data's own token spacing.

        A counting or BERT model trained on 15 s samples has simply never
        seen transitions between adjacent cells the vehicle skipped over;
        demanding finer spacing than the training granularity makes every
        gap unclosable. The paper's metrics score the imputed *polyline*,
        so coarser-but-correct token spacing loses no accuracy.
        """
        steps: list[float] = []
        vocab = self.tokenizer.vocabulary if self.tokenizer else None
        for seq in sequences:
            for a, b in zip(seq.tokens, seq.tokens[1:]):
                if vocab.is_special(a) or vocab.is_special(b):
                    continue
                steps.append(self.tokenizer.token_distance_m(a, b))
        if steps:
            typical = float(np.median(steps))
            self._gap_threshold_m = max(self._gap_threshold_m or 0.0, 1.3 * typical)

    @property
    def gap_threshold_m(self) -> Optional[float]:
        """Training-data-derived floor of the imputation gap test."""
        return self._gap_threshold_m

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    @property
    def name(self) -> str:
        return "KAMEL"

    # -- model selection -------------------------------------------------------

    def _model_for_box(self, box: BoundingBox) -> Optional[MaskedModel]:
        """Repository lookup at the ``repository.retrieve`` chaos site.

        Lets a lookup fault propagate; the ladder loop in
        :meth:`_impute_segment` turns it into a descent to the next rung
        instead of a lost trajectory.
        """
        if not self.config.use_partitioning:
            return self._global_model
        assert self.repository is not None
        with span("repository.lookup"):
            self.guards.chaos_hook("repository.retrieve")
            stored: Optional[StoredModel] = self.repository.retrieve(box)
        return stored.model if stored is not None else None

    # -- imputation path ----------------------------------------------------------

    def impute(
        self,
        trajectory: Trajectory,
        deadline: Optional[Deadline] = None,
        max_rung: Optional[str] = None,
    ) -> ImputationResult:
        """Densify one sparse trajectory (offline or per-stream-item).

        ``deadline`` caps the whole call (``None``: no budget). An expiring
        deadline degrades remaining segments to cheaper ladder rungs —
        ultimately straight lines — rather than hanging.

        ``max_rung`` caps the *top* of the ladder: a rung name from
        :data:`~repro.resilience.ladder.ALL_RUNGS` at or below which every
        segment must start (the serving tier passes its deadline cap
        here).  Rungs above the cap are skipped with fallback reason
        ``"brownout"``; ``linear`` is never capped.

        Raises :class:`~repro.errors.QuarantinedInputError` for inputs no
        rung can process (non-finite or absurd coordinates/timestamps).
        """
        if not self._fitted:
            raise NotFittedError("call fit() before impute()")
        assert self.tokenizer and self.detokenizer and self.constraints
        validate_trajectory(trajectory)
        cfg = self.config
        points = trajectory.points
        if len(points) < 2:
            return ImputationResult(trajectory, ())

        # One request id per impute call; joins an enclosing scope (the
        # streaming service's) so spans and WARNING logs stay correlated.
        with trace_scope():
            with span("impute.trajectory", points=len(points)) as sp:
                with obs.stopwatch("repro.kamel.impute_seconds"):
                    result = self._impute_points(
                        trajectory, points, cfg, deadline, max_rung
                    )
                sp.set(
                    segments=result.num_segments,
                    failed=result.num_failed,
                    degraded=result.num_degraded,
                    model_calls=result.total_model_calls,
                )
        obs.count("repro.kamel.trajectories_total")
        obs.count("repro.kamel.segments_total", len(points) - 1)
        obs.count("repro.kamel.segments_imputed_total", result.num_segments)
        obs.count("repro.kamel.segments_failed_total", result.num_failed)
        obs.count("repro.kamel.segments_degraded_total", result.num_degraded)
        obs.count("repro.kamel.model_calls_total", result.total_model_calls)
        return result

    def _impute_points(
        self,
        trajectory: Trajectory,
        points: Sequence[Point],
        cfg: KamelConfig,
        deadline: Optional[Deadline] = None,
        max_rung: Optional[str] = None,
    ) -> ImputationResult:
        # Per Section 4.1: pick the model for the whole trajectory first;
        # segments it does not cover fall back to per-segment retrieval
        # (the paper's "split into sub-trajectories").
        try:
            trajectory_model = self._model_for_box(trajectory.bbox())
        except Exception:
            # An injected or infrastructure lookup fault: the per-segment
            # rungs look up again, and descend if that fails too.
            trajectory_model = None

        # The gap segments run in lockstep: each round, one model
        # invocation per model for all of them. Every gap is a lane of its
        # own, since its GapContext reads only observed points.
        gapped = [a.distance_to(b) > cfg.maxgap_m for a, b in zip(points, points[1:])]
        # Each point is tokenized at most once, when a segment first needs
        # it: a point is an endpoint of two segments and a neighbour of two
        # more. The tokenizer is read per call, never kept.
        tokens: list[Optional[int]] = [None] * len(points)

        def token_at(i: int) -> int:
            token = tokens[i]
            if token is None:
                token = tokens[i] = self.tokenizer.token_for_point(points[i])
            return token

        settled = iter(run_lockstep([
            self._impute_segment(i, points, token_at, trajectory_model, deadline, max_rung)
            for i, gap in enumerate(gapped)
            if gap
        ]))

        out_points: list[Point] = [points[0]]
        outcomes: list[SegmentOutcome] = []
        for i, gap in enumerate(gapped):
            a, b = points[i], points[i + 1]
            if not gap:
                out_points.append(b)
                continue
            interior, outcome = next(settled)
            if outcome.failed:
                _log.warning(
                    "segment fell back to the linear line",
                    extra={"data": {
                        "trajectory": trajectory.traj_id,
                        "segment": i,
                        "gap_m": round(a.distance_to(b), 1),
                        "model_calls": outcome.model_calls,
                    }},
                )
            out_points.extend(interior)
            out_points.append(b)
            outcomes.append(outcome)
        return ImputationResult(
            trajectory.with_points(out_points), tuple(outcomes)
        )

    def _impute_segment(
        self,
        index: int,
        points: Sequence[Point],
        token_at: Callable[[int], int],
        trajectory_model: Optional[MaskedModel],
        deadline: Optional[Deadline] = None,
        max_rung: Optional[str] = None,
    ) -> Search[tuple[list[Point], SegmentOutcome]]:
        """Segment ``index`` (``points[index]`` to the next) down the
        ladder, a round of model questions per yield; ``token_at(i)`` is
        the token of ``points[i]``."""
        assert self.tokenizer and self.detokenizer and self.constraints
        cfg = self.config
        vocab = self.tokenizer.vocabulary
        a, b = points[index], points[index + 1]

        def linear(reason: str, calls: int = 0) -> tuple[list[Point], SegmentOutcome]:
            obs.count(f"repro.kamel.fallback.{reason}_total")
            ladder.record(RUNG_LINEAR)
            interior = linear_interior(a, b, cfg.maxgap_m)
            return interior, SegmentOutcome(
                index, True, calls, len(interior),
                rung=RUNG_LINEAR, fallback_reason=reason,
            )

        with span("tokenize"):
            source = token_at(index)
            dest = token_at(index + 1)
            if vocab.is_special(source) or vocab.is_special(dest):
                return linear("endpoint_unseen")

            prev_token = None
            if index > 0:
                t = token_at(index - 1)
                if not vocab.is_special(t) and t != source:
                    prev_token = t
            next_token = None
            if index + 2 < len(points):
                t = token_at(index + 2)
                if not vocab.is_special(t) and t != dest:
                    next_token = t

        ctx = GapContext(
            source=source,
            dest=dest,
            source_time=a.t,
            dest_time=b.t,
            prev_token=prev_token,
            next_token=next_token,
        )

        # Walk the degradation ladder top-down. Any rung error — deadline,
        # failed lookup or inference, exhausted search — descends to the
        # next rung; the linear rung always succeeds, so no input is ever
        # dropped or left hanging. A failed model invocation is thrown in
        # at the rung's ``yield`` and lands in the same clauses.
        calls_spent = 0
        reason: Optional[str] = None
        # One search state per segment, shared by the rungs: what the full
        # rung has measured and been answered the lower rungs read back,
        # and however the ladder ends the tallies it holds are flushed.
        with SegmentSearch(ctx, self.tokenizer) as search:
            for rung in self.rungs:
                if rung == RUNG_LINEAR:
                    break
                if not ladder.allows(rung, max_rung):
                    # Ladder cap (the serving tier's deadline cap or the
                    # caller's max_rung): skip the expensive rungs; the
                    # segment starts lower on the ladder instead.
                    obs.count("repro.resilience.brownout_skips_total")
                    reason = reason or "brownout"
                    continue
                if deadline is not None and deadline.expired:
                    obs.count("repro.resilience.deadline_exceeded_total")
                    reason = "deadline"
                    break
                try:
                    result = yield from self._run_rung(
                        rung, ctx, a, b, trajectory_model, deadline, search
                    )
                except DeadlineExceeded:
                    obs.count("repro.resilience.deadline_exceeded_total")
                    reason = "deadline"
                    break
                except Exception as exc:
                    # An infrastructure fault, injected or real. Degrade,
                    # never propagate past the ladder.
                    obs.count("repro.resilience.rung_errors_total")
                    _log.warning(
                        "ladder rung raised; descending",
                        extra={"data": {
                            "rung": rung, "segment": index,
                            "error": type(exc).__name__,
                        }},
                    )
                    reason = reason or "rung_error"
                    continue
                if result is None:  # rung has no usable model here
                    reason = reason or "no_model"
                    continue
                calls_spent += result.model_calls
                if result.failed:
                    reason = reason or "search_failed"
                    continue

                with span("detokenize"):
                    interior_points = self.detokenizer.detokenize_interior(
                        result.interior or (), a, b
                    )
                interior_points = assign_times(a, b, interior_points)
                ladder.record(rung)
                return interior_points, SegmentOutcome(
                    index,
                    False,
                    calls_spent,
                    len(interior_points),
                    rung=rung,
                    fallback_reason=reason if rung != RUNG_FULL else None,
                )
            return linear(reason or "search_failed", calls_spent)

    def _run_rung(
        self,
        rung: str,
        ctx: GapContext,
        a: Point,
        b: Point,
        trajectory_model: Optional[MaskedModel],
        deadline: Optional[Deadline],
        search: SegmentSearch,
    ) -> Search[Optional[SegmentImputation]]:
        """Attempt one ladder rung; ``None`` when its model is unavailable.

        ``search`` is the segment's search state. Each rung names the
        model it is about to ask: the two rungs that query the repository
        model (the lookup is a function of the same box on both, and the
        rung configs differ in beam width and budget only) share answers,
        the counting rung asks another model and starts without any; the
        segment's geometry serves all three.
        """
        assert self.tokenizer and self.constraints
        if rung in (RUNG_FULL, RUNG_REDUCED_BEAM):
            model = trajectory_model
            if model is None:
                model = self._model_for_box(BoundingBox.from_points([a, b]))
            if model is None or not model.is_fitted:
                return None
            imputer = make_segment_imputer(
                self.guards.guard_model(model),
                self.tokenizer,
                self.constraints,
                self._rung_configs[rung],
                self._gap_threshold_m,
            )
            return (yield from imputer.rounds(ctx, deadline, search.asking(model)))
        if rung == RUNG_COUNTING:
            model = self._fallback_model
            if model is None or not model.is_fitted:
                return None
            # Outside the ``model.predict`` chaos site: the safety-net rung
            # keeps serving while injected faults fail the repository model.
            imputer = IterativeImputer(
                model,
                self.tokenizer,
                self.constraints,
                self._rung_configs[RUNG_COUNTING],
                self._gap_threshold_m,
            )
            return (yield from imputer.rounds(ctx, deadline, search.asking(model)))
        return None  # pragma: no cover - rungs_for names no other rung

    # -- persistence -----------------------------------------------------------

    def save(self, directory) -> None:
        """Persist the trained system to ``directory`` (see repro.io)."""
        from repro.io import save_kamel  # deferred: io imports this module

        save_kamel(self, directory)

    @classmethod
    def load(cls, directory) -> "Kamel":
        """Restore a system persisted with :meth:`save`."""
        from repro.io import load_kamel

        return load_kamel(directory)

    def __repr__(self) -> str:
        state = "fitted" if self._fitted else "unfitted"
        return f"Kamel({state}, backend={self.config.model_backend!r})"
