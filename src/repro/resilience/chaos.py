"""Seeded, deterministic fault injection for the imputation pipeline.

A :class:`ChaosMonkey` drives its mischief from one seeded RNG (and
plain counters), so every scenario replays exactly:

* **failures** — hooked call sites (pyramid model lookup, masked-model
  inference) raise :class:`InjectedFault`, a *non*-``KamelError``
  simulating infrastructure trouble; the degradation ladder absorbs it
  as a ``rung_error`` and the segment descends one rung;
* **latency** — hooked sites sleep ``latency_s`` with probability
  ``latency_rate`` (deadline-enforcement fodder);
* **corruption** — a grid lookup returns a neighboring cell instead of
  the true one (GPS-noise-at-the-worst-moment; constraints and
  detokenization must stay sane);
* **worker faults** — a serve worker built with
  ``ServeConfig.worker_chaos`` calls :meth:`ChaosMonkey.on_dequeue`
  (stalls), :meth:`ChaosMonkey.on_process` (the crash of
  ``crash_after``) and :meth:`ChaosMonkey.on_ipc` (delays) itself.

Hooks are *installed*, never baked in: production code paths carry one
``None``-checked slot (``PipelineGuards.chaos``) or are wrapped
per-instance (:func:`install_grid_chaos`), so an uninstrumented system
pays an attribute test at most.  :func:`chaos_scope` installs a monkey
on a system and/or grid and restores everything on exit.
"""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from repro.mlm.base import MaskQuery, MaskedModel, TokenProb
from repro.obs import instrument as obs
from repro.obs.logging import get_logger

__all__ = [
    "ChaosConfig",
    "ChaosMonkey",
    "InjectedFault",
    "InjectedCrash",
    "PipelineGuards",
    "install_grid_chaos",
    "chaos_scope",
]

_log = get_logger("resilience.chaos")


class InjectedFault(RuntimeError):
    """A simulated infrastructure failure (deliberately not a KamelError)."""


class InjectedCrash(RuntimeError):
    """A simulated process death mid-stream (kill-and-resume scenarios)."""


@dataclass(frozen=True)
class ChaosConfig:
    """One reproducible fault scenario."""

    seed: int = 0
    failure_rate: float = 0.0
    """Probability a call at a ``failure_sites`` site raises InjectedFault."""
    latency_rate: float = 0.0
    """Probability a hooked call sleeps ``latency_s`` first."""
    latency_s: float = 0.01
    corruption_rate: float = 0.0
    """Probability a chaotic grid lookup returns a neighboring cell."""
    failure_sites: tuple[str, ...] = ("repository.retrieve", "model.predict")
    """Which hook sites may fail (latency applies to every hooked site)."""
    crash_after: Optional[int] = None
    """Raise InjectedCrash on the Nth (1-based) task a serve worker takes,
    after journaling it ``begin``; the worker turns it into a hard exit.
    Only shard 0's first incarnation keeps it (``repro.serve.worker``)."""
    stall_after: Optional[int] = None
    """Wedge (sleep ``stall_s``) before the Nth (1-based) dequeued task.

    A *stalled worker* is the pool-level overload driver: its shard's
    queue backs up deterministically while the process stays alive, which
    is exactly the shape admission control and deadlines must absorb.
    """
    stall_s: float = 0.0
    ipc_delay_rate: float = 0.0
    """Probability an IPC hook site (``ipc_sites``) sleeps ``ipc_delay_s``."""
    ipc_delay_s: float = 0.01
    ipc_sites: tuple[str, ...] = ("ipc.dequeue", "ipc.result")
    """Which IPC sites may be delayed: slow dequeue, delayed result pipe."""

    def __post_init__(self) -> None:
        for name in (
            "failure_rate",
            "latency_rate",
            "corruption_rate",
            "ipc_delay_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        for name in ("latency_s", "stall_s", "ipc_delay_s"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        for name in ("crash_after", "stall_after"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")


@dataclass
class ChaosReport:
    """What a monkey actually did (for test assertions and the CLI table)."""

    faults: dict = field(default_factory=dict)
    delays: dict = field(default_factory=dict)
    corruptions: int = 0
    crashes: int = 0
    stalls: int = 0
    calls: dict = field(default_factory=dict)

    @property
    def total_faults(self) -> int:
        return sum(self.faults.values())

    @property
    def total_delays(self) -> int:
        return sum(self.delays.values())

    def to_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "faults": dict(self.faults),
            "delays": dict(self.delays),
            "corruptions": self.corruptions,
            "crashes": self.crashes,
            "stalls": self.stalls,
        }


class ChaosMonkey:
    """The seeded fault injector the hooks consult.

    One ``random.Random(seed)`` drives every decision, so a fixed seed and
    a fixed call sequence replay the exact same faults.  ``sleep`` is
    injectable so tests can count delays without waiting.
    """

    def __init__(
        self,
        config: ChaosConfig,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        self._sleep = sleep
        self.report = ChaosReport()
        self._process_calls = 0
        self._dequeue_calls = 0

    # -- the generic call-site hook ----------------------------------------

    def on_call(self, site: str) -> None:
        """Fire at a hooked call site: maybe delay, maybe fail."""
        cfg = self.config
        self.report.calls[site] = self.report.calls.get(site, 0) + 1
        if cfg.latency_rate and self._rng.random() < cfg.latency_rate:
            self.report.delays[site] = self.report.delays.get(site, 0) + 1
            obs.count("repro.resilience.chaos.delays_total")
            self._sleep(cfg.latency_s)
        if (
            cfg.failure_rate
            and site in cfg.failure_sites
            and self._rng.random() < cfg.failure_rate
        ):
            self.report.faults[site] = self.report.faults.get(site, 0) + 1
            obs.count("repro.resilience.chaos.faults_total")
            raise InjectedFault(f"injected failure at {site}")

    # -- specialized hooks -------------------------------------------------

    def corrupt_cell(self, cell, neighbors: list) -> object:
        """Maybe swap a grid cell for one of its neighbors."""
        cfg = self.config
        if (
            cfg.corruption_rate
            and neighbors
            and self._rng.random() < cfg.corruption_rate
        ):
            self.report.corruptions += 1
            obs.count("repro.resilience.chaos.corruptions_total")
            return neighbors[self._rng.randrange(len(neighbors))]
        return cell

    def on_process(self) -> None:
        """Fire once per task a serve worker processes (crash injection)."""
        self._process_calls += 1
        crash_after = self.config.crash_after
        if crash_after is not None and self._process_calls == crash_after:
            self.report.crashes += 1
            _log.warning(
                "injected crash",
                extra={"data": {"process_calls": self._process_calls}},
            )
            raise InjectedCrash(
                f"injected crash on process call #{self._process_calls}"
            )

    # -- pool-level IPC hooks ------------------------------------------------

    def on_dequeue(self) -> None:
        """Fire right after a worker dequeues a task (stall injection).

        The stall is counter-driven, not RNG-driven, so overload tests get
        a deterministic "worker N wedges on its Kth task" scenario
        regardless of how much randomized chaos rode along before it.
        """
        self._dequeue_calls += 1
        cfg = self.config
        if (
            cfg.stall_after is not None
            and self._dequeue_calls == cfg.stall_after
            and cfg.stall_s > 0
        ):
            self.report.stalls += 1
            obs.count("repro.resilience.chaos.stalls_total")
            _log.warning(
                "injected worker stall",
                extra={"data": {
                    "dequeue_calls": self._dequeue_calls,
                    "stall_s": cfg.stall_s,
                }},
            )
            self._sleep(cfg.stall_s)
        self.on_ipc("ipc.dequeue")

    def on_ipc(self, site: str) -> None:
        """Fire at an IPC boundary: maybe delay (slow dequeue / result pipe)."""
        cfg = self.config
        if (
            cfg.ipc_delay_rate
            and site in cfg.ipc_sites
            and self._rng.random() < cfg.ipc_delay_rate
        ):
            self.report.delays[site] = self.report.delays.get(site, 0) + 1
            obs.count("repro.resilience.chaos.ipc_delays_total")
            self._sleep(cfg.ipc_delay_s)

    def __repr__(self) -> str:
        return (
            f"ChaosMonkey(seed={self.config.seed}, "
            f"faults={self.report.total_faults}, delays={self.report.total_delays})"
        )


class _ChaosModel(MaskedModel):
    """A trained model behind the ``model.predict`` hook.

    The hook fires once per invocation — one ``predict_masked_batch`` of
    any size, or one ``predict_masked`` — before the inner model runs, so
    an injected fault reaches the caller with the model never invoked.
    """

    def __init__(self, inner: MaskedModel, monkey: ChaosMonkey) -> None:
        self.inner = inner
        self.monkey = monkey

    def fit(self, sequences, vocab_size) -> MaskedModel:  # pragma: no cover
        raise NotImplementedError("the chaos proxy wraps an already-trained model")

    def predict_masked(
        self, tokens: Sequence[int], position: int, top_k: int = 10
    ) -> list[TokenProb]:
        self.monkey.on_call("model.predict")
        return self.inner.predict_masked(tokens, position, top_k)

    def predict_masked_batch(
        self, queries: Sequence[MaskQuery], top_k: int = 10
    ) -> list[list[TokenProb]]:
        self.monkey.on_call("model.predict")
        return self.inner.predict_masked_batch(queries, top_k)

    @property
    def is_fitted(self) -> bool:
        return self.inner.is_fitted

    @property
    def num_training_tokens(self) -> int:
        return self.inner.num_training_tokens


class PipelineGuards:
    """A system's chaos slot and its two hook sites.

    One instance hangs off each :class:`repro.core.kamel.Kamel`: pyramid
    model lookup fires ``repository.retrieve`` and every model invocation
    fires ``model.predict``. ``chaos`` is ``None`` in production, so each
    site costs one attribute check. A fault raised at either site is a
    rung error: the segment descends one rung of the ladder.
    """

    def __init__(self) -> None:
        self.chaos: Optional[ChaosMonkey] = None

    def chaos_hook(self, site: str) -> None:
        """Fire the installed chaos monkey at ``site`` (no-op when None)."""
        if self.chaos is not None:
            self.chaos.on_call(site)

    def guard_model(self, model: MaskedModel) -> MaskedModel:
        """``model`` itself, or behind the ``model.predict`` hook while a
        monkey is installed."""
        if self.chaos is None:
            return model
        return _ChaosModel(model, self.chaos)


def install_grid_chaos(grid, monkey: ChaosMonkey) -> Callable[[], None]:
    """Wrap ``grid.cell_of`` with latency + corruption injection.

    Installs an instance-level override (the class stays untouched) and
    returns an uninstaller that restores the original method.
    """
    original = type(grid).cell_of

    def chaotic_cell_of(point):
        if monkey.config.latency_rate and monkey._rng.random() < monkey.config.latency_rate:
            monkey.report.delays["grid.cell_of"] = (
                monkey.report.delays.get("grid.cell_of", 0) + 1
            )
            obs.count("repro.resilience.chaos.delays_total")
            monkey._sleep(monkey.config.latency_s)
        cell = original(grid, point)
        return monkey.corrupt_cell(cell, grid.neighbors(cell))

    grid.cell_of = chaotic_cell_of

    def uninstall() -> None:
        if grid.__dict__.get("cell_of") is chaotic_cell_of:
            del grid.__dict__["cell_of"]

    return uninstall


@contextlib.contextmanager
def chaos_scope(
    monkey: ChaosMonkey,
    system=None,
    grid=None,
) -> Iterator[ChaosMonkey]:
    """Install ``monkey`` on the given components; restore on exit.

    ``system`` is a :class:`repro.core.kamel.Kamel` (hooks model lookup and
    inference via its :class:`PipelineGuards`), ``grid`` any
    :class:`repro.grid.base.Grid` (latency + corruption on ``cell_of``).
    """
    uninstallers: list[Callable[[], None]] = []
    if system is not None:
        previous = system.guards.chaos
        system.guards.chaos = monkey
        uninstallers.append(lambda: setattr(system.guards, "chaos", previous))
    if grid is not None:
        uninstallers.append(install_grid_chaos(grid, monkey))
    try:
        yield monkey
    finally:
        for undo in reversed(uninstallers):
            undo()
