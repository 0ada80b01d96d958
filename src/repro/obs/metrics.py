"""Process-local metrics: counters, gauges, and latency histograms.

The registry is the single sink for everything the KAMEL pipeline
measures about itself — model calls, constraint rejections, pyramid
lookups, per-module latencies — and serializes to one JSON document
(``kamel ... --metrics-out``). It is deliberately dependency-free and
process-local: the paper's system is a single-process service, and every
reader — ``/metrics``, ``/slow``, ``kamel stats``, the serving pool's
fleet merge — consumes :meth:`MetricsRegistry.snapshot` dicts.

Counters and gauges are plain attribute updates guarded only by the GIL
(instrumented hot loops aggregate locally and call :meth:`Counter.inc`
once per batch). Histograms keep count, sum, min, max and fixed buckets —
cumulative, Prometheus style, so bucket edges survive aggregation. Every
quantile, in one process or merged across many, is one
:func:`bucket_quantile` interpolation over those cumulative buckets, so a
snapshot and its fleet merge report the same p50/p90/p99.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable, Mapping, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "COUNT_BUCKETS",
    "bucket_quantile",
    "get_registry",
    "merge_snapshots",
    "set_registry",
]


LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, math.inf,
)
"""Default bucket edges for wall-time histograms (seconds, 100 µs – 60 s)."""

COUNT_BUCKETS: tuple[float, ...] = (
    0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, math.inf,
)
"""Default bucket edges for small-integer distributions (calls, batch sizes)."""

_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99)
"""The quantile points every histogram snapshot reports (``p50``/``p90``/``p99``)."""


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self._value}

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A value that can go up and down (queue depth, model count)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: Union[int, float]) -> None:
        self._value = float(value)

    def inc(self, amount: Union[int, float] = 1) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self._value}

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self._value})"


def bucket_quantile(
    edges: Sequence[float],
    cumulative: Sequence[int],
    count: int,
    lo: Optional[float],
    hi: Optional[float],
    p: float,
) -> Optional[float]:
    """The ``p`` quantile by linear interpolation over cumulative buckets.

    ``edges`` are ascending upper bucket edges, ``cumulative`` the count
    at or below each, ``lo``/``hi`` the observed min and max (they clamp
    the first and last occupied buckets). Cumulative counts on shared
    edges sum exactly across processes, so the same function serves one
    registry and a fleet merge; the answer is correct to within one
    bucket's width.
    """
    if not count:
        return None
    target = p * count
    running = 0
    previous_edge = lo if lo is not None else 0.0
    top = hi if hi is not None else edges[-1]
    for edge, cum in zip(edges, cumulative):
        bucket_count = cum - running
        if not bucket_count:
            continue
        if cum >= target:
            upper = min(edge, top)
            fraction = (target - running) / bucket_count
            return previous_edge + fraction * (upper - previous_edge)
        running = cum
        previous_edge = min(edge, top)
    return hi


def _quantiles(
    edges: Sequence[float],
    cumulative: Sequence[int],
    count: int,
    lo: Optional[float],
    hi: Optional[float],
) -> dict[str, Optional[float]]:
    """The reported ``p50``/``p90``/``p99`` of one set of cumulative buckets."""
    return {
        f"p{int(p * 100)}": bucket_quantile(edges, cumulative, count, lo, hi, p)
        for p in _QUANTILES
    }


class Histogram:
    """A distribution: count, sum, extrema and cumulative fixed buckets."""

    __slots__ = ("name", "buckets", "_bucket_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        edges = tuple(sorted(buckets if buckets is not None else LATENCY_BUCKETS))
        if not edges:
            raise ValueError(f"histogram {name} needs at least one bucket edge")
        if edges[-1] != math.inf:
            edges = edges + (math.inf,)
        self.buckets = edges
        self._bucket_counts = [0] * len(edges)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._bucket_counts[bisect_left(self.buckets, value)] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> Optional[float]:
        return self._min if self._count else None

    @property
    def max(self) -> Optional[float]:
        return self._max if self._count else None

    def quantile(self, p: float) -> Optional[float]:
        """The :func:`bucket_quantile` interpolation for ``p``."""
        return bucket_quantile(
            self.buckets, list(accumulate(self._bucket_counts)),
            self._count, self.min, self.max, p,
        )

    def reset(self) -> None:
        self._bucket_counts = [0] * len(self.buckets)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def to_dict(self) -> dict:
        cumulative = list(accumulate(self._bucket_counts))
        return {
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "quantiles": _quantiles(
                self.buckets, cumulative, self._count, self.min, self.max
            ),
            "buckets": {
                _format_edge(edge): cum for edge, cum in zip(self.buckets, cumulative)
            },
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, count={self._count}, mean={self.mean:.6g})"


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Name -> metric map with snapshot/reset and JSON export.

    Metric objects are created once and then mutated in place, so
    instrumented modules may cache the returned handle; :meth:`reset`
    zeroes values without invalidating handles.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    # -- creation / lookup ---------------------------------------------------

    def _get_or_create(self, name: str, factory, kind) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = factory()
                    self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), Gauge)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._get_or_create(name, lambda: Histogram(name, buckets), Histogram)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export --------------------------------------------------------------

    def snapshot(self, prefix: str = "") -> dict[str, dict]:
        """A plain-dict view of every metric (optionally name-filtered)."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {
            name: metric.to_dict()
            for name, metric in items
            if name.startswith(prefix)
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, default=float)

    def write_json(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    def reset(self, prefix: str = "") -> None:
        """Zero metric values in place (handles stay valid)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            if metric.name.startswith(prefix):
                metric.reset()

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"


# -- cross-process aggregation ------------------------------------------------


def _parse_edge(key: str) -> float:
    return math.inf if key == "+Inf" else float(key)


def _format_edge(edge: float) -> str:
    return "+Inf" if math.isinf(edge) else repr(edge)


def merge_snapshots(
    snapshots: Iterable[Mapping[str, Mapping]],
) -> dict[str, dict]:
    """Combine per-process :meth:`MetricsRegistry.snapshot` dicts into one.

    The serving tier runs one registry per worker process; the pool merges
    their snapshots into a single fleet-wide view for ``/metrics``:

    * counters and gauges sum (a queue depth split across workers adds
      up; a fleet rate is a ratio of summed counters, not a merged gauge);
    * histograms sum counts, sums, and cumulative bucket counts on the
      union of edges; min/max combine; quantiles are re-derived from the
      merged buckets by the same :func:`bucket_quantile` a single
      registry uses, so merging one snapshot leaves its quantiles as
      they were.

    A name carrying different metric types across snapshots raises
    ``ValueError`` — that is a naming bug, not something to paper over.
    """
    merged: dict[str, dict] = {}
    for snap in snapshots:
        for name, data in snap.items():
            kind = data.get("type")
            if name not in merged:
                if kind == "histogram":
                    merged[name] = {
                        "type": "histogram",
                        "count": 0,
                        "sum": 0.0,
                        "min": None,
                        "max": None,
                        "bucket_counts": {},
                    }
                else:
                    merged[name] = {"type": kind, "value": 0.0}
            entry = merged[name]
            if entry["type"] != kind:
                raise ValueError(
                    f"metric {name!r} is a {kind} in one snapshot and a "
                    f"{entry['type']} in another"
                )
            if kind == "histogram":
                entry["count"] += data["count"]
                entry["sum"] += data["sum"]
                for bound in ("min", "max"):
                    value = data.get(bound)
                    if value is None:
                        continue
                    current = entry[bound]
                    pick = min if bound == "min" else max
                    entry[bound] = value if current is None else pick(current, value)
                for key, cum in data.get("buckets", {}).items():
                    edge = _parse_edge(key)
                    entry["bucket_counts"][edge] = (
                        entry["bucket_counts"].get(edge, 0) + cum
                    )
            elif kind in ("counter", "gauge"):
                entry["value"] += data["value"]
            else:
                raise ValueError(f"metric {name!r} has unknown type {kind!r}")
    for name, entry in merged.items():
        if entry["type"] != "histogram":
            continue
        edges = sorted(entry.pop("bucket_counts").items())
        count = entry["count"]
        entry["mean"] = entry["sum"] / count if count else 0.0
        entry["quantiles"] = _quantiles(
            [e for e, _ in edges], [c for _, c in edges],
            count, entry["min"], entry["max"],
        )
        entry["buckets"] = {_format_edge(e): c for e, c in edges}
    return merged


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (what the pipeline records into)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one (for tests)."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
