"""The per-segment search state: what it may share, what an error may not
lose, and the seam the benchmark's tracer hooks.

``filter`` keeps its tallies in the segment's ``SegmentSearch`` until the
segment's owner flushes it. The parent reported every call the moment it
ended, so whatever had been filtered before a deadline or a rung error
was already on the books; the references here replay the
parent's per-call body over the calls that actually ran.
"""

import dataclasses
from collections import Counter

import pytest

from repro import Kamel, KamelConfig
from repro.core import kamel as kamel_module
from repro.core.constraints import GapContext, SegmentSearch, SpatialConstraints
from repro.core.imputation import BeamSearchImputer, SegmentImputer
from repro.core.tokenization import Tokenizer, make_grid
from repro.errors import DeadlineExceeded
from repro.geo import Point
from repro.mlm.base import MaskedModel
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.resilience import RUNG_LINEAR
from repro.resilience.ladder import (
    DEGRADED_BEAM_SIZE,
    DEGRADED_MAX_MODEL_CALLS,
    RUNG_COUNTING,
    RUNG_FULL,
    RUNG_REDUCED_BEAM,
)

from tests.test_core_imputation import _patch_world
from tests.test_token_geometry import (
    MAX_SPEED_MPS,
    ParentConstraints,
    constraint_books,
    parent_creates_cycle,
    parent_filter,
    parent_passthrough_filter,
    parent_record_filter,
)


class _Forwarding(MaskedModel):
    """A model wrapper that is not trainable and otherwise forwards."""

    def __init__(self, inner):
        self.inner = inner

    def fit(self, sequences, vocab_size):
        raise NotImplementedError

    def predict_masked(self, tokens, position, top_k=10):
        return self.inner.predict_masked(tokens, position, top_k=top_k)

    @property
    def is_fitted(self):
        return self.inner.is_fitted

    @property
    def num_training_tokens(self):
        return self.inner.num_training_tokens


class _RaisingOnRound(_Forwarding):
    """Answers like ``inner`` until round ``k`` (1-based, counted over the
    wrapper's lifetime), which raises ``error`` instead; later rounds answer."""

    def __init__(self, inner, rounds, k, error):
        super().__init__(inner)
        self.rounds, self.k, self.error = rounds, k, error

    def predict_masked_batch(self, queries, top_k=10):
        self.rounds.append(len(queries))
        if len(self.rounds) == self.k:
            raise self.error
        return self.inner.predict_masked_batch(queries, top_k=top_k)


def observed(search, on_ask):
    """``search`` run as it would run, with ``on_ask`` shown each
    :class:`~repro.core.imputation.Ask` it makes; answers and thrown
    errors reach it unchanged."""
    reply, error = None, None
    try:
        while True:
            try:
                ask = search.send(reply) if error is None else search.throw(error)
            except StopIteration as stop:
                return stop.value
            on_ask(ask)
            reply, error = None, None
            try:
                reply = yield ask
            except Exception as exc:
                error = exc
    finally:
        search.close()


def _record_filter_calls(constraints, monkeypatch):
    """Shadow ``constraints.filter`` the way the tracer does and keep what
    every call was given."""
    calls = []
    real_filter = constraints.filter

    def recording(*args, **kwargs):
        candidates, ctx, segment, insert_pos = args[:4]
        calls.append((list(candidates), ctx, tuple(segment), insert_pos))
        return real_filter(*args, **kwargs)

    monkeypatch.setattr(constraints, "filter", recording)
    return calls


def _parent_books(constraints, calls):
    """What the parent's per-call reporting leaves behind for ``calls``."""
    registry = MetricsRegistry()
    parent = ParentConstraints(constraints.tokenizer, constraints.max_speed_mps)
    for candidates, ctx, segment, insert_pos in calls:
        if type(constraints) is SpatialConstraints:
            out, rejected = parent_filter(
                parent, parent_creates_cycle, candidates, ctx, segment, insert_pos
            )
        else:
            out, rejected = parent_passthrough_filter(
                constraints.tokenizer, candidates, segment, insert_pos
            )
        parent_record_filter(registry, len(candidates), len(out), rejected)
    return constraint_books(registry)


@pytest.fixture()
def fresh_kamel(small_split):
    train, _ = small_split
    return Kamel(KamelConfig(max_model_calls=600)).fit(train)


class TestCountersOnTheErrorPath:
    @pytest.mark.parametrize(
        "error, reason",
        [
            (DeadlineExceeded("segment imputation"), "deadline"),
            (RuntimeError("backend fell over"), "rung_error"),
        ],
        ids=["deadline", "rung_error"],
    )
    @pytest.mark.parametrize("k", [2, 5])
    def test_ladder_lands_what_was_filtered_before_the_raise(
        self, fresh_kamel, small_split, monkeypatch, error, reason, k
    ):
        system = fresh_kamel
        _, test = small_split
        sparse = test[0].sparsify(600.0)
        calls = _record_filter_calls(system.constraints, monkeypatch)
        rounds = []
        guard_model = system.guards.guard_model
        monkeypatch.setattr(
            system.guards,
            "guard_model",
            lambda model: _RaisingOnRound(guard_model(model), rounds, k, error),
        )
        # Which segments' asks each invocation of the raising model carried:
        # an ask made after the j-th invocation goes out in the (j+1)-th.
        asked_after = []
        search_rounds = SegmentImputer.rounds

        def noting(self, ctx, deadline, search):
            def note(ask):
                if isinstance(ask.model, _RaisingOnRound):
                    asked_after.append(((ctx.source, ctx.dest), len(rounds)))

            return (yield from observed(search_rounds(self, ctx, deadline, search), note))

        monkeypatch.setattr(SegmentImputer, "rounds", noting)
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            result = system.impute(sparse)
        finally:
            set_registry(previous)

        assert len(rounds) >= k  # the raise happened, mid-search
        # It strikes every segment whose rows shared the k-th invocation,
        # and no other.
        struck = [s for s in result.segments if s.fallback_reason == reason]
        token = system.tokenizer.token_for_point
        ends = [
            (token(sparse.points[s.start_index]), token(sparse.points[s.start_index + 1]))
            for s in struck
        ]
        shared = [where for where, before in asked_after if before == k - 1]
        assert sorted(ends) == sorted(shared) and struck
        before = sum(rounds[: k - 1])
        assert before > 0 and len(calls) >= before
        if reason == "deadline":
            # Every segment of this trajectory shared the round: all of
            # them end on the line, and nothing is asked after it.
            assert {s.rung for s in struck} == {RUNG_LINEAR}
        else:  # the rungs below ran on, and what they filtered is booked too
            assert len(calls) > before
        assert constraint_books(registry) == _parent_books(system.constraints, calls)

    def test_a_run_on_its_own_flushes_on_the_way_out(self, monkeypatch):
        tokenizer, cfg, constraints, model, tokens = _patch_world(3, beam_size=4)
        ctx = GapContext(tokens[(0, 1)], tokens[(7, 1)], source_time=0.0, dest_time=60.0)
        calls = _record_filter_calls(constraints, monkeypatch)
        rounds = []
        failing = _RaisingOnRound(model, rounds, 3, RuntimeError("backend fell over"))
        imputer = BeamSearchImputer(failing, tokenizer, constraints, cfg)
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            with pytest.raises(RuntimeError):
                imputer.impute_segment(ctx)
        finally:
            set_registry(previous)
        assert len(calls) == rounds[0] + rounds[1] > 0
        assert constraint_books(registry) == _parent_books(constraints, calls)


class TestStateOwnership:
    def test_two_contexts_on_one_constraints_object(self):
        """One token, inside A's ellipse and outside B's: with the calls of
        the two segments interleaved, each state keeps its own verdict and
        the shared objects keep none."""
        tokenizer = Tokenizer(make_grid("hex", 75.0))

        def at(x, y):
            return tokenizer.vocabulary.add(tokenizer.grid.cell_of(Point(x, y)))

        s, d_far, d_near = at(0.0, 0.0), at(1200.0, 0.0), at(300.0, 0.0)
        token, other = at(600.0, 150.0), at(150.0, 0.0)
        constraints = SpatialConstraints(tokenizer, MAX_SPEED_MPS)
        ctx_a = GapContext(s, d_far, 0.0, 80.0)
        ctx_b = GapContext(s, d_near, 0.0, 20.0)
        assert constraints.within_speed_ellipse(token, ctx_a)
        assert not constraints.within_speed_ellipse(token, ctx_b)
        candidates = [(token, 0.6), (other, 0.4)]
        shared_before = (set(vars(constraints)), set(vars(tokenizer)))

        alone = {
            ctx: constraints.filter(candidates, ctx, (ctx.source, ctx.dest), 0)
            for ctx in (ctx_a, ctx_b)
        }
        assert alone[ctx_a] == [(token, 0.6), (other, 0.4)]
        assert alone[ctx_b] == [(other, 0.4)]
        with SegmentSearch(ctx_a, tokenizer) as a, SegmentSearch(ctx_b, tokenizer) as b:
            for _ in range(3):
                for ctx, state in ((ctx_a, a), (ctx_b, b), (ctx_b, b), (ctx_a, a)):
                    got = constraints.filter(candidates, ctx, (ctx.source, ctx.dest), 0, state)
                    assert got == alone[ctx]
            assert a.verdicts[token].in_ellipse and not b.verdicts[token].in_ellipse
            assert a.frame is not b.frame and a.paths.keys().isdisjoint(b.paths)
        assert (set(vars(constraints)), set(vars(tokenizer))) == shared_before

    @pytest.mark.parametrize(
        "ablation",
        [{}, {"use_constraints": False}, {"use_multipoint": False}, {"imputer": "iterative"}],
        ids=["default", "no_constraints", "no_multipoint", "iterative"],
    )
    def test_a_shared_state_changes_no_output_and_no_count(
        self, small_split, monkeypatch, ablation
    ):
        """Every configuration runs on the per-segment state; handing each
        ``filter`` call no state at all — every call on its own, reporting
        itself, as the parent ran — gives the same points and the same books."""
        train, test = small_split
        system = Kamel(KamelConfig(max_model_calls=40, **ablation)).fit(train)
        feed = [t.sparsify(600.0) for t in test[:4]]

        def run():
            registry = MetricsRegistry()
            previous = set_registry(registry)
            try:
                results = [system.impute(t) for t in feed]
            finally:
                set_registry(previous)
            return results, constraint_books(registry)

        with_state = run()
        real_filter = system.constraints.filter
        states = []

        def stateless(candidates, ctx, segment, insert_pos, state):
            states.append((ctx, state))
            return real_filter(candidates, ctx, segment, insert_pos)

        monkeypatch.setattr(system.constraints, "filter", stateless)
        assert run() == with_state
        assert with_state[1]["repro.constraints.candidates_in_total"] > 0
        assert states and all(isinstance(state, SegmentSearch) for _, state in states)
        # One state per segment: the segments of a trajectory interleave
        # their calls, but a state serves its own context only and each
        # context has the one state.
        assert all(state.ctx is ctx for ctx, state in states)
        assert len({id(state) for _, state in states}) == len({id(ctx) for ctx, _ in states})


class _CountingProxy(_Forwarding):
    """The tracer's model proxy: only ``predict_masked``, so a batch runs
    through the inherited loop and every query is one counted call."""

    def __init__(self, inner, answers):
        super().__init__(inner)
        self.answers = answers

    def predict_masked(self, tokens, position, top_k=10):
        out = self.inner.predict_masked(tokens, position, top_k=top_k)
        self.answers.append(out)
        return out


class TestTheTracedSeam:
    def test_one_filter_call_per_model_query_with_the_raw_answer(self, small_split):
        """``perf/trace.py`` times the constraints layer by shadowing
        ``system.constraints.filter`` and counts model queries by wrapping
        what ``guards.guard_model`` is given. A search routed around either
        attribute would keep every output and report nothing."""
        train, test = small_split
        system = Kamel(KamelConfig(max_model_calls=5)).fit(train)  # all three rungs run
        answers, filtered = [], []
        proxies = {}

        def proxy_for(model):
            if model is None or isinstance(model, _CountingProxy):
                return model
            return proxies.setdefault(id(model), _CountingProxy(model, answers))

        constraints, guards = system.constraints, system.guards
        fallback, guard_model, real_filter = system._fallback_model, guards.guard_model, constraints.filter

        def timed_filter(*args, **kwargs):
            out = real_filter(*args, **kwargs)
            filtered.append((args[0], out))
            return out

        try:
            constraints.filter = timed_filter
            guards.guard_model = lambda model: guard_model(proxy_for(model))
            system._fallback_model = proxy_for(fallback)
            results = [system.impute(t.sparsify(600.0)) for t in test[:3]]
        finally:
            system._fallback_model = fallback
            del constraints.filter, guards.guard_model

        assert {s.rung for r in results for s in r.segments} - {"full"}  # the ladder was walked
        assert len(filtered) == len(answers) > 0
        for (given, out), raw in zip(filtered, answers):
            assert given is raw
            assert isinstance(out, list) and len(out) <= len(given)

    def test_every_point_tokenized_once_through_the_attribute(self, small_split, monkeypatch):
        """``perf/trace.py`` times tokenization by swapping
        ``system.tokenizer`` for a proxy. A ``Kamel`` that kept the bound
        method would tokenize past the proxy; one that tokenized per
        segment would ask for a point up to four times in one ``impute``."""
        train, test = small_split
        system = Kamel(KamelConfig(max_model_calls=5)).fit(train)
        feed = [t.sparsify(600.0) for t in test[:5]]
        plain = [system.impute(t) for t in feed]

        reached = []  # every call the real method serves, proxied or not
        real_token_for_point = Tokenizer.token_for_point

        def counting(tokenizer, p):
            reached.append(p)
            return real_token_for_point(tokenizer, p)

        monkeypatch.setattr(Tokenizer, "token_for_point", counting)
        tokenizer, asked, swapped = system.tokenizer, [], []
        system.tokenizer = _CountingTokenizer(tokenizer, asked)
        try:
            for trajectory in feed:
                start = len(asked)
                swapped.append(system.impute(trajectory))
                per_point = Counter(id(p) for p in asked[start:])
                assert set(per_point) <= {id(p) for p in trajectory.points}
                assert all(n == 1 for n in per_point.values())
        finally:
            system.tokenizer = tokenizer
        assert swapped == plain
        assert len(asked) == len(reached) > len(feed)


class _CountingTokenizer:
    """The tracer's tokenizer proxy: forwards every attribute and keeps the
    point of every ``token_for_point`` call that reaches it."""

    def __init__(self, inner, asked):
        self._inner = inner
        self.asked = asked

    def token_for_point(self, p):
        self.asked.append(p)
        return self._inner.token_for_point(p)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestRungConfigs:
    def test_built_once_equal_to_the_per_run_replace(self, small_split, monkeypatch):
        """The reduced-beam and counting rungs search with the configs the
        parent built by ``replace`` on every run: equal values, now one
        object per rung, reused by every segment."""
        train, test = small_split
        system = Kamel(KamelConfig(max_model_calls=5)).fit(train)  # all three rungs run
        cfg = system.config
        degraded_calls = min(cfg.max_model_calls, DEGRADED_MAX_MODEL_CALLS)
        expected = {
            RUNG_FULL: cfg,
            RUNG_REDUCED_BEAM: dataclasses.replace(
                cfg,
                beam_size=min(cfg.beam_size, DEGRADED_BEAM_SIZE),
                max_model_calls=degraded_calls,
            ),
            RUNG_COUNTING: dataclasses.replace(cfg, max_model_calls=degraded_calls),
        }
        running, built = [], []
        real_run_rung = system._run_rung

        def recording_run_rung(rung, *args):
            running.append(rung)
            return (yield from real_run_rung(rung, *args))

        def recording(factory):
            def build(model, tokenizer, constraints, config, *rest):
                built.append((running[-1], config))
                return factory(model, tokenizer, constraints, config, *rest)

            return build

        monkeypatch.setattr(system, "_run_rung", recording_run_rung)
        monkeypatch.setattr(
            kamel_module, "make_segment_imputer", recording(kamel_module.make_segment_imputer)
        )
        monkeypatch.setattr(
            kamel_module, "IterativeImputer", recording(kamel_module.IterativeImputer)
        )
        for trajectory in test[:5]:
            system.impute(trajectory.sparsify(600.0))

        by_rung = {}
        for rung, config in built:
            by_rung.setdefault(rung, []).append(config)
        assert set(by_rung) == set(expected)
        for rung, configs in by_rung.items():
            assert len(configs) > 1, rung
            assert configs[0] == expected[rung]
            assert all(config is configs[0] for config in configs)
        assert by_rung[RUNG_FULL][0] is cfg
