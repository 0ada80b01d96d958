"""Circuit breaking and retry-with-jittered-backoff.

Two cooperating guards around the pipeline's flaky-able dependencies
(pyramid model lookup, masked-model inference):

* :class:`RetryPolicy` — absorb *transient* failures: retry the call a few
  times with exponential backoff and deterministic seeded jitter (the
  nucliadb-style storage retry pattern, scaled down to in-process work).
* :class:`CircuitBreaker` — contain *persistent* failures: after
  ``failure_threshold`` consecutive errors the circuit opens and every
  call short-circuits with :class:`repro.errors.CircuitOpenError` until
  ``recovery_s`` has passed, when one half-open probe is allowed through;
  success closes the circuit, failure re-opens it.

The degradation ladder treats ``CircuitOpenError`` as "skip this rung
now" — an open inference circuit sends the segment straight to the
counting-model rung without burning its deadline on doomed calls.

Everything takes injectable clock/sleep functions so tests drive state
transitions without real waiting, and the jitter RNG is seeded so chaos
runs replay exactly.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional, Sequence, TypeVar

from repro.errors import CircuitOpenError
from repro.mlm.base import MaskQuery, MaskedModel, TokenProb
from repro.obs import instrument as obs
from repro.obs.logging import get_logger

__all__ = ["CircuitBreaker", "RetryPolicy", "PipelineGuards", "GuardedModel"]

_log = get_logger("resilience.breaker")

T = TypeVar("T")

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

_STATE_VALUES = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}
"""Gauge encoding: 0 closed, 1 half-open, 2 open."""


class CircuitBreaker:
    """A three-state (closed / open / half-open) circuit breaker.

    Counts *consecutive* failures; any success resets the count.  While
    open, :meth:`call` raises :class:`CircuitOpenError` without invoking
    the wrapped callable.  After ``recovery_s`` the next call becomes the
    half-open probe.
    """

    def __init__(
        self,
        name: str,
        failure_threshold: int = 5,
        recovery_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        state_gauge: Optional[str] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if recovery_s <= 0:
            raise ValueError(f"recovery_s must be positive, got {recovery_s}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_s = recovery_s
        self._clock = clock
        self._state_gauge = state_gauge
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.open_count = 0

    # -- state machine -----------------------------------------------------

    def _set_state(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        if self._state_gauge is not None:
            obs.gauge(self._state_gauge).set(_STATE_VALUES[state])
        _log.info(
            "circuit state change",
            extra={"data": {"breaker": self.name, "state": state}},
        )

    def allow(self) -> bool:
        """Whether a call may proceed right now (may flip open→half-open)."""
        if self.state == OPEN:
            assert self.opened_at is not None
            if self._clock() - self.opened_at >= self.recovery_s:
                self._set_state(HALF_OPEN)
                return True
            return False
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state != CLOSED:
            self._set_state(CLOSED)

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == HALF_OPEN or self.consecutive_failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self.opened_at = self._clock()
        self.open_count += 1
        obs.count("repro.resilience.breaker_open_total")
        self._set_state(OPEN)

    def reset(self) -> None:
        """Force the circuit closed (test/admin hook)."""
        self.consecutive_failures = 0
        self.opened_at = None
        self._set_state(CLOSED)

    # -- call wrapper ------------------------------------------------------

    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` under the breaker; raise ``CircuitOpenError`` if open."""
        if not self.allow():
            raise CircuitOpenError(
                f"circuit {self.name!r} is open "
                f"({self.consecutive_failures} consecutive failures)"
            )
        try:
            result = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.name}, {self.state}, failures={self.consecutive_failures})"


class RetryPolicy:
    """Retry a callable with exponential backoff and seeded jitter.

    ``attempts`` is the number of *retries* after the first try.  The
    delay before retry ``n`` (1-based) is ``base_delay_s * 2**(n-1)``
    scaled by a jitter factor drawn uniformly from ``[0.5, 1.0)`` — the
    "full jitter halved" scheme, deterministic under a fixed seed.
    """

    def __init__(
        self,
        attempts: int = 2,
        base_delay_s: float = 0.01,
        max_delay_s: float = 0.25,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        retry_on: tuple[type[BaseException], ...] = (Exception,),
    ) -> None:
        if attempts < 0:
            raise ValueError(f"attempts must be >= 0, got {attempts}")
        self.attempts = attempts
        self.base_delay_s = base_delay_s
        self.max_delay_s = max_delay_s
        self.retry_on = retry_on
        self._rng = random.Random(seed)
        self._sleep = sleep
        self.total_retries = 0

    def delay_for(self, attempt: int) -> float:
        """The jittered backoff before retry ``attempt`` (1-based)."""
        raw = min(self.max_delay_s, self.base_delay_s * 2 ** (attempt - 1))
        return raw * (0.5 + 0.5 * self._rng.random())

    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn``, retrying transient failures; re-raise the last one."""
        attempt = 0
        while True:
            try:
                return fn()
            except self.retry_on as exc:
                attempt += 1
                if attempt > self.attempts:
                    raise
                self.total_retries += 1
                obs.count("repro.resilience.retries_total")
                delay = self.delay_for(attempt)
                _log.debug(
                    "retrying after transient failure",
                    extra={"data": {
                        "attempt": attempt,
                        "delay_s": round(delay, 4),
                        "error": type(exc).__name__,
                    }},
                )
                self._sleep(delay)


class GuardedModel(MaskedModel):
    """A :class:`MaskedModel` proxy: inference under retry + breaker + chaos.

    Wraps the model chosen for a segment so every model *invocation* —
    one ``predict_masked_batch`` of any size, or one ``predict_masked`` —
    is one guarded attempt: one chaos-hook firing, one retry budget, one
    breaker success or failure.  The chaos hook fires *inside* the
    retried callable — an injected transient fault can be absorbed by a
    retry (which re-runs the whole batch), which is exactly the behavior
    the harness needs to prove.
    """

    def __init__(self, inner: MaskedModel, guards: "PipelineGuards") -> None:
        self.inner = inner
        self.guards = guards

    def fit(self, sequences, vocab_size) -> "MaskedModel":  # pragma: no cover
        raise NotImplementedError("GuardedModel wraps an already-trained model")

    def predict_masked(
        self, tokens: Sequence[int], position: int, top_k: int = 10
    ) -> list[TokenProb]:
        return self._guarded(lambda: self.inner.predict_masked(tokens, position, top_k))

    def predict_masked_batch(
        self, queries: Sequence[MaskQuery], top_k: int = 10
    ) -> list[list[TokenProb]]:
        return self._guarded(lambda: self.inner.predict_masked_batch(queries, top_k))

    def _guarded(self, invoke: Callable[[], T]) -> T:
        def attempt() -> T:
            self.guards.chaos_hook("model.predict")
            return invoke()

        return self.guards.inference_breaker.call(
            lambda: self.guards.inference_retry.call(attempt)
        )

    @property
    def is_fitted(self) -> bool:
        return self.inner.is_fitted

    @property
    def num_training_tokens(self) -> int:
        return self.inner.num_training_tokens


class PipelineGuards:
    """The per-system bundle of breakers, retry policies, and chaos slot.

    One instance hangs off each :class:`repro.core.kamel.Kamel`; it holds
    no trained state, so resetting it (as chaos tests do) never touches
    the models.  ``chaos`` is the injectable
    :class:`repro.resilience.chaos.ChaosMonkey` — ``None`` in production,
    so the hook is one attribute check on the hot path.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_s: float = 30.0,
        retry_attempts: int = 2,
        retry_base_delay_s: float = 0.01,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.lookup_breaker = CircuitBreaker(
            "repository.lookup",
            failure_threshold,
            recovery_s,
            clock,
            state_gauge="repro.resilience.breaker.lookup_state",
        )
        self.inference_breaker = CircuitBreaker(
            "model.inference",
            failure_threshold,
            recovery_s,
            clock,
            state_gauge="repro.resilience.breaker.inference_state",
        )
        self.lookup_retry = RetryPolicy(
            retry_attempts, retry_base_delay_s, seed=seed, sleep=sleep
        )
        self.inference_retry = RetryPolicy(
            retry_attempts, retry_base_delay_s, seed=seed + 1, sleep=sleep
        )
        self.chaos = None  # Optional[repro.resilience.chaos.ChaosMonkey]

    def chaos_hook(self, site: str) -> None:
        """Fire the installed chaos monkey at ``site`` (no-op when None)."""
        if self.chaos is not None:
            self.chaos.on_call(site)

    def guard_model(self, model: MaskedModel) -> MaskedModel:
        """Wrap ``model`` for guarded inference (idempotent)."""
        if isinstance(model, GuardedModel):
            return model
        return GuardedModel(model, self)

    def guarded_lookup(self, fn: Callable[[], T]) -> T:
        """Run a repository lookup under chaos hook + retry + breaker."""

        def attempt() -> T:
            self.chaos_hook("repository.retrieve")
            return fn()

        return self.lookup_breaker.call(lambda: self.lookup_retry.call(attempt))

    def reset(self) -> None:
        """Close both circuits (chaos installation stays as-is)."""
        self.lookup_breaker.reset()
        self.inference_breaker.reset()

    def __repr__(self) -> str:
        return (
            f"PipelineGuards(lookup={self.lookup_breaker.state}, "
            f"inference={self.inference_breaker.state}, "
            f"chaos={'on' if self.chaos is not None else 'off'})"
        )
