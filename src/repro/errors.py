"""Exception hierarchy for the KAMEL reproduction library.

All library-raised exceptions derive from :class:`KamelError` so callers can
catch everything coming out of this package with a single ``except`` clause.
That contract extends to the resilience layer: a deadline overrun
(:class:`DeadlineExceeded`), an open circuit (:class:`CircuitOpenError`), and
a rejected input (:class:`QuarantinedInputError`) are all *typed* signals the
pipeline raises deliberately and handles at well-defined boundaries — they
are part of graceful degradation, not crashes.  Injected chaos faults
(:class:`repro.resilience.chaos.InjectedFault`) deliberately do **not**
derive from :class:`KamelError`: they simulate infrastructure failures
(network, disk, a wedged model server) that originate *outside* the library,
which is exactly what the retry/breaker machinery must survive.
"""

from __future__ import annotations

from typing import Optional


class KamelError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(KamelError):
    """An invalid configuration value was supplied."""


class NotFittedError(KamelError):
    """A component that requires training was used before being trained."""


class EmptyInputError(KamelError):
    """An operation that needs data received an empty input."""


class VocabularyError(KamelError):
    """A token was used that the vocabulary does not know about."""


class ModelRepositoryError(KamelError):
    """The pyramid model repository was asked for something inconsistent."""


class ImputationError(KamelError):
    """A gap could not be imputed and no fallback was allowed."""


class DeadlineExceeded(KamelError):
    """A time budget ran out mid-operation.

    Raised by :meth:`repro.resilience.deadline.Deadline.check` between model
    calls so a pathological segment triggers the linear fallback instead of
    hanging the request.  Carries the overrun in seconds when known.
    """

    def __init__(self, message: str, overrun_s: Optional[float] = None) -> None:
        super().__init__(message)
        self.overrun_s = overrun_s


class CircuitOpenError(KamelError):
    """A circuit breaker is open and the call was short-circuited.

    The degradation ladder treats this as "skip straight to the next rung":
    no time is spent on a dependency that has been failing consistently.
    """


class OverloadError(KamelError):
    """A request was refused (or evicted) by serving-tier admission control.

    Raised/propagated by :class:`repro.serve.pool.ServingPool` when a
    shard's bounded queue is full and the configured admission policy
    sheds load instead of queueing without bound.  Carries the shard and
    the policy that made the decision so callers can tell "you were the
    newest request under ``shed``" from "you were the oldest under
    ``shed-oldest``" apart.  Shedding is part of staying up — this is a
    typed signal, not a crash.
    """

    def __init__(
        self,
        message: str,
        shard: Optional[int] = None,
        policy: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.policy = policy


class PoolReceiverError(KamelError):
    """The serving pool's receiver thread died handling a worker message.

    Raised by :class:`repro.serve.pool.ServingPool` from the next
    ``submit`` / ``drain`` / ``stop`` after the failure (the original
    exception is ``__cause__``). With no receiver, no result can be
    accepted any more — the pool says so instead of looking slow.
    """


class QuarantinedInputError(KamelError):
    """An input was rejected as malformed and belongs in quarantine.

    Raised by input validation (non-finite coordinates, absurd magnitudes)
    before any imputation work starts.  The streaming service catches it,
    records the trajectory in the dead-letter store with ``reason``, and
    keeps the stream alive.
    """

    def __init__(self, message: str, reason: str = "invalid") -> None:
        super().__init__(message)
        self.reason = reason
