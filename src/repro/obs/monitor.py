"""Rolling quality monitors: windowed rates with threshold callbacks.

The cumulative counters in :mod:`repro.obs.metrics` answer "what has this
process done since it started"; a long-lived streaming service also needs
"how is it doing *right now*". This module provides that second view:
fixed-capacity :class:`RollingWindow` buffers over the most recent
observations, wrapped in monitors that expose a windowed value (failure
rate, latency, rejection ratio, pyramid hit rate) and fire edge-triggered
callbacks when a threshold is crossed — the hook
:class:`~repro.core.streaming.StreamingImputationService` uses to alert
or degrade gracefully.

Monitors live on the :class:`~repro.obs.metrics.MetricsRegistry` (one
:class:`MonitorHub` per registry), so swapping or resetting the registry
— as tests and benchmarks do — swaps or resets the windows with it.

Everything here is stdlib-only and safe under the GIL: windows are
``collections.deque`` ring buffers, and threshold evaluation happens on
the observing thread.
"""

from __future__ import annotations

import math
from collections import Counter as _TallyCounter
from collections import deque
from typing import Any, Callable, Optional

__all__ = [
    "DEFAULT_WINDOW",
    "RollingWindow",
    "Threshold",
    "RollingMonitor",
    "LevelWindow",
    "MonitorHub",
]


DEFAULT_WINDOW = 2048
"""Default window capacity (observations), sized so short runs see every
observation (windowed == cumulative) while long-lived services track only
recent behavior."""

AlertCallback = Callable[["RollingMonitor", float], None]


class RollingWindow:
    """A fixed-capacity ring buffer of float observations.

    Push-only; once full, each new observation evicts the oldest. All
    summary statistics are computed over whatever the window currently
    holds.
    """

    __slots__ = ("_values", "_sum")

    def __init__(self, capacity: int = DEFAULT_WINDOW) -> None:
        if capacity < 1:
            raise ValueError(f"window capacity must be >= 1, got {capacity}")
        self._values: deque[float] = deque(maxlen=capacity)
        self._sum = 0.0

    @property
    def capacity(self) -> int:
        return self._values.maxlen or 0

    def push(self, value: float) -> None:
        values = self._values
        if len(values) == values.maxlen:
            self._sum -= values[0]
        self._sum += value
        values.append(value)

    def extend_bits(self, ones: int, total: int) -> None:
        """Push ``ones`` 1.0s and ``total - ones`` 0.0s (ratio observations)."""
        if total < ones or ones < 0:
            raise ValueError(f"need 0 <= ones <= total, got {ones}/{total}")
        for _ in range(ones):
            self.push(1.0)
        for _ in range(total - ones):
            self.push(0.0)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / len(self._values) if self._values else 0.0

    @property
    def min(self) -> Optional[float]:
        return min(self._values) if self._values else None

    @property
    def max(self) -> Optional[float]:
        return max(self._values) if self._values else None

    def quantile(self, p: float) -> Optional[float]:
        """The empirical ``p`` quantile of the window (linear interpolation)."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {p}")
        if not self._values:
            return None
        ordered = sorted(self._values)
        rank = p * (len(ordered) - 1)
        lo = int(math.floor(rank))
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])

    def clear(self) -> None:
        self._values.clear()
        self._sum = 0.0

    def __repr__(self) -> str:
        return f"RollingWindow({len(self)}/{self.capacity}, mean={self.mean:.6g})"


class Threshold:
    """One edge-triggered limit on a monitor's windowed value.

    Fires ``on_alert`` when the value crosses the limit (and the window
    holds at least ``min_count`` observations), then stays silent until
    the value returns to the good side, when ``on_clear`` (if any) fires
    and the threshold re-arms.
    """

    __slots__ = ("limit", "direction", "min_count", "on_alert", "on_clear", "breached")

    def __init__(
        self,
        limit: float,
        on_alert: AlertCallback,
        direction: str = "above",
        min_count: int = 20,
        on_clear: Optional[AlertCallback] = None,
    ) -> None:
        if direction not in ("above", "below"):
            raise ValueError(f"direction must be 'above' or 'below', got {direction!r}")
        self.limit = limit
        self.direction = direction
        self.min_count = min_count
        self.on_alert = on_alert
        self.on_clear = on_clear
        self.breached = False

    def _bad(self, value: float) -> bool:
        return value > self.limit if self.direction == "above" else value < self.limit

    def evaluate(self, monitor: "RollingMonitor", value: float, count: int) -> None:
        if count < self.min_count:
            return
        bad = self._bad(value)
        if bad and not self.breached:
            self.breached = True
            self.on_alert(monitor, value)
        elif not bad and self.breached:
            self.breached = False
            if self.on_clear is not None:
                self.on_clear(monitor, value)


class RollingMonitor:
    """A named rolling window plus its thresholds.

    ``observe`` pushes one value; ``extend`` pushes a batch of 0/1 bits
    (for ratio-style monitors: failures over segments, rejections over
    candidates). Either way every push re-evaluates the thresholds
    against the windowed mean.
    """

    __slots__ = ("name", "window", "_thresholds")

    def __init__(self, name: str, capacity: int = DEFAULT_WINDOW) -> None:
        self.name = name
        self.window = RollingWindow(capacity)
        self._thresholds: list[Threshold] = []

    # -- observation -------------------------------------------------------

    def observe(self, value: float) -> float:
        self.window.push(float(value))
        return self._evaluate()

    def extend(self, ones: int, total: int) -> float:
        """Record ``total`` binary outcomes, ``ones`` of them positive."""
        if total <= 0:
            return self.value
        self.window.extend_bits(ones, total)
        return self._evaluate()

    def _evaluate(self) -> float:
        value = self.window.mean
        count = len(self.window)
        for threshold in self._thresholds:
            threshold.evaluate(self, value, count)
        return value

    # -- state -------------------------------------------------------------

    @property
    def value(self) -> float:
        """The windowed mean (for 0/1 windows: the windowed rate)."""
        return self.window.mean

    @property
    def count(self) -> int:
        return len(self.window)

    def quantile(self, p: float) -> Optional[float]:
        return self.window.quantile(p)

    @property
    def breached(self) -> bool:
        return any(t.breached for t in self._thresholds)

    def add_threshold(
        self,
        limit: float,
        on_alert: AlertCallback,
        direction: str = "above",
        min_count: int = 20,
        on_clear: Optional[AlertCallback] = None,
    ) -> Threshold:
        threshold = Threshold(limit, on_alert, direction, min_count, on_clear)
        self._thresholds.append(threshold)
        return threshold

    def clear_thresholds(self) -> None:
        self._thresholds = []

    def reset(self) -> None:
        """Empty the window and re-arm thresholds (thresholds stay attached)."""
        self.window.clear()
        for threshold in self._thresholds:
            threshold.breached = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "value": self.value,
            "count": self.count,
            "capacity": self.window.capacity,
            "breached": self.breached,
        }

    def __repr__(self) -> str:
        return f"RollingMonitor({self.name}, value={self.value:.6g}, n={self.count})"


class LevelWindow:
    """A rolling window over categorical outcomes (pyramid hit levels).

    Each observation is a pyramid level (a small int) or ``None`` for a
    miss; :meth:`rates` reports the windowed share of lookups served at
    each level, keyed ``"L<level>"`` (misses under ``"miss"``).
    """

    __slots__ = ("name", "_values")

    def __init__(self, name: str, capacity: int = DEFAULT_WINDOW) -> None:
        self.name = name
        self._values: deque[Optional[int]] = deque(maxlen=capacity)

    def observe(self, level: Optional[int]) -> None:
        self._values.append(level)

    def __len__(self) -> int:
        return len(self._values)

    def rates(self) -> dict[str, float]:
        n = len(self._values)
        if not n:
            return {}
        tally = _TallyCounter(
            "miss" if level is None else f"L{level}" for level in self._values
        )
        return {key: count / n for key, count in sorted(tally.items())}

    def reset(self) -> None:
        self._values.clear()

    def to_dict(self) -> dict[str, Any]:
        return {"count": len(self), "rates": self.rates()}

    def __repr__(self) -> str:
        return f"LevelWindow({self.name}, n={len(self)})"


class MonitorHub:
    """The standard rolling monitors the KAMEL pipeline feeds.

    One hub hangs off every :class:`~repro.obs.metrics.MetricsRegistry`
    (``registry.monitors``); the instrumented modules report through
    :func:`repro.obs.instrument.monitors`:

    * ``failure``   — per-segment imputation failures (``core.kamel``):
      segments resolved by the *linear* ladder rung only, the paper's
      failure definition; backs the ``repro.kamel.failure_rate`` gauge,
      so the gauge tracks *recent* behavior instead of the process
      lifetime.
    * ``degraded``  — segments resolved below the *top* ladder rung
      (reduced beam, counting, or linear); backs the
      ``repro.kamel.degraded_rate`` gauge and the ``/healthz``
      ``degraded`` status.
    * ``latency``   — ``StreamingImputationService.process`` seconds.
    * ``rejection`` — constraint-filter rejections over candidates in.
    * ``hit_rate``  — repository lookups finding a covering model.
    * ``hit_level`` — which pyramid level answered each lookup.
    """

    def __init__(self, capacity: int = DEFAULT_WINDOW) -> None:
        self.capacity = capacity
        self.failure = RollingMonitor("kamel.failure_rate", capacity)
        self.degraded = RollingMonitor("kamel.degraded_rate", capacity)
        self.latency = RollingMonitor("streaming.process_seconds", capacity)
        self.rejection = RollingMonitor("constraints.rejection_ratio", capacity)
        self.hit_rate = RollingMonitor("partitioning.hit_rate", capacity)
        self.hit_level = LevelWindow("partitioning.hit_level", capacity)

    def all(self) -> dict[str, Any]:
        return {
            "failure": self.failure,
            "degraded": self.degraded,
            "latency": self.latency,
            "rejection": self.rejection,
            "hit_rate": self.hit_rate,
            "hit_level": self.hit_level,
        }

    def reset(self) -> None:
        for monitor in self.all().values():
            monitor.reset()

    def to_dict(self) -> dict[str, Any]:
        return {name: monitor.to_dict() for name, monitor in self.all().items()}

    def __repr__(self) -> str:
        return f"MonitorHub(capacity={self.capacity})"
