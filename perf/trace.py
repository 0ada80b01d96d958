"""Spans recorded from outside the program, by proxies on a fitted system.

The traced pass swaps timing proxies onto a :class:`repro.core.kamel.Kamel`
instance's collaborators, runs the same requests, and takes the proxies
off again. Every proxied call appends one span (layer, start, end,
parent, trajectory) to a :class:`SpanLog` held in memory; the per-layer
metrics are sums over that log, and ``core.residual`` is the self time of
the ``impute`` root spans (:func:`perf.stats.self_times`).

Public attributes carry all but two of the hooks: ``system.tokenizer``,
``system.repository.retrieve``, ``system.constraints.filter``,
``system.detokenizer.detokenize_interior`` and ``system.guards.guard_model``
(every model the full and reduced-beam rungs query passes through it).
The counting rung's model is deliberately unguarded and has no public
handle, so ``system._fallback_model`` is wrapped directly — the one
private name this package touches.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterator, Optional, Sequence

from repro.mlm.base import MaskedModel, TokenProb

from perf.stats import self_times

LAYERS = (
    "impute",
    "tokenization",
    "partitioning",
    "mlm",
    "constraints",
    "detokenization",
)
"""Span names: the root, then the repo's modules in pipeline order."""


class SpanLog:
    """Spans as parallel lists (a million small objects would cost more
    than the work they time)."""

    def __init__(self) -> None:
        self.layer: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.traj: list[int] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._traj = -1

    def __len__(self) -> int:
        return len(self.layer)

    def open(self, layer: int) -> int:
        index = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.traj.append(self._traj)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    @contextlib.contextmanager
    def request(self, traj_index: int) -> Iterator[None]:
        """The root span of one request; children opened inside join it."""
        self._traj = traj_index
        index = self.open(0)
        try:
            yield
        finally:
            self.close(index)
            self._traj = -1

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Per layer: how many spans, and their summed duration."""
        calls = dict.fromkeys(LAYERS, 0)
        busy = dict.fromkeys(LAYERS, 0.0)
        for layer, start, end in zip(self.layer, self.start, self.end):
            name = LAYERS[layer]
            calls[name] += 1
            busy[name] += end - start
        return calls, busy

    def root_self_s(self) -> float:
        """Time inside ``impute`` that no proxied layer accounts for."""
        own = self_times(self.start, self.end, self.parent)
        return sum(own[i] for i, value in enumerate(self.layer) if value == 0)

    def to_rows(self) -> list[list]:
        """``[layer, start_s, end_s, parent_index, trajectory_index]`` rows."""
        return [
            [LAYERS[self.layer[i]], self.start[i], self.end[i], self.parent[i], self.traj[i]]
            for i in range(len(self.layer))
        ]


def _timed(log: SpanLog, layer: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
    index_of_layer = LAYERS.index(layer)

    def wrapper(*args, **kwargs):
        index = log.open(index_of_layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            log.close(index)
        if after is not None:
            after(args, out)
        return out

    return wrapper


class _TokenizerProxy:
    """Forwards everything to the real tokenizer, timing method calls."""

    def __init__(self, inner, log: SpanLog) -> None:
        self._inner = inner
        self._log = log

    def __getattr__(self, name: str):
        value = getattr(self._inner, name)
        if callable(value):
            value = _timed(self._log, "tokenization", value)
            # Cache on the instance so __getattr__ runs once per method.
            self.__dict__[name] = value
        return value


class _ModelProxy(MaskedModel):
    """A :class:`MaskedModel` that times ``predict_masked`` of another."""

    _MLM = LAYERS.index("mlm")

    def __init__(self, inner: MaskedModel, log: SpanLog) -> None:
        self.inner = inner
        self._log = log

    def fit(self, sequences, vocab_size):  # pragma: no cover - never trained here
        raise RuntimeError("a tracing proxy is not trainable")

    def predict_masked(
        self, tokens: Sequence[int], position: int, top_k: int = 10
    ) -> list[TokenProb]:
        index = self._log.open(self._MLM)
        try:
            out = self.inner.predict_masked(tokens, position, top_k=top_k)
        finally:
            self._log.close(index)
        self._log.count("mlm.candidates", len(out))
        return out

    @property
    def is_fitted(self) -> bool:
        return self.inner.is_fitted

    @property
    def num_training_tokens(self) -> int:
        return self.inner.num_training_tokens


@contextlib.contextmanager
def traced(system, log: SpanLog) -> Iterator[None]:
    """Install the proxies on ``system`` for the duration of the block."""
    proxies: dict[int, _ModelProxy] = {}

    def proxy_for(model: MaskedModel) -> MaskedModel:
        if model is None or isinstance(model, _ModelProxy):
            return model
        found = proxies.get(id(model))
        if found is None:
            found = proxies[id(model)] = _ModelProxy(model, log)
        return found

    def after_retrieve(args, out) -> None:
        log.count("partitioning.hits", int(out is not None))

    def after_filter(args, out) -> None:
        log.count("constraints.in", len(args[0]))
        log.count("constraints.out", len(out))
        log.count("constraints.empty", int(not out))

    def after_detokenize(args, out) -> None:
        log.count("detokenization.tokens", len(args[0]))

    guards, repository = system.guards, system.repository
    constraints, detokenizer = system.constraints, system.detokenizer
    tokenizer, fallback = system.tokenizer, system._fallback_model
    guard_model = guards.guard_model
    try:
        system.tokenizer = _TokenizerProxy(tokenizer, log)
        repository.retrieve = _timed(
            log, "partitioning", repository.retrieve, after_retrieve
        )
        constraints.filter = _timed(log, "constraints", constraints.filter, after_filter)
        detokenizer.detokenize_interior = _timed(
            log, "detokenization", detokenizer.detokenize_interior, after_detokenize
        )
        guards.guard_model = lambda model: guard_model(proxy_for(model))
        system._fallback_model = proxy_for(fallback)
        yield
    finally:
        system.tokenizer = tokenizer
        system._fallback_model = fallback
        # The wrappers were set as instance attributes shadowing the
        # class's methods; deleting them restores the originals.
        del repository.retrieve, constraints.filter
        del detokenizer.detokenize_interior, guards.guard_model
