"""Process-local metrics: counters, gauges, and latency histograms.

The registry is the single sink for everything the KAMEL pipeline
measures about itself — model calls, constraint rejections, pyramid
lookups, per-module latencies — and serializes to one JSON document
(``kamel ... --metrics-out``). It is deliberately dependency-free and
process-local: the paper's system is a single-process service, and a
scrape/push exporter can be layered on top of :meth:`MetricsRegistry.snapshot`
without touching the instrumented code.

Counters and gauges are plain attribute updates guarded only by the GIL
(instrumented hot loops aggregate locally and call :meth:`Counter.inc`
once per batch). Histograms combine fixed buckets — cumulative, Prometheus
style, so bucket edges survive aggregation — with streaming quantile
estimates (the P² algorithm of Jain & Chlamtac, CACM 1985) that need O(1)
memory per tracked quantile.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left, insort
from typing import Iterable, Mapping, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "P2Quantile",
    "LATENCY_BUCKETS",
    "COUNT_BUCKETS",
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


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "description", "_value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
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

    __slots__ = ("name", "description", "_value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0

    def set(self, value: Union[int, float]) -> None:
        self._value = float(value)

    def inc(self, amount: Union[int, float] = 1) -> None:
        self._value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self._value}

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self._value})"


class P2Quantile:
    """Streaming quantile estimate via the P² algorithm (no sample storage).

    Keeps five markers whose heights converge on the ``p`` quantile using
    piecewise-parabolic interpolation. Exact for the first five
    observations; O(1) memory and O(1) per observation afterwards.
    """

    __slots__ = ("p", "_heights", "_positions", "_desired", "_increments")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = p
        self._heights: list[float] = []
        self._positions = [0, 1, 2, 3, 4]
        self._desired = [0.0, 2 * p, 4 * p, 2 + 2 * p, 4.0]
        self._increments = [0.0, p / 2, p, (1 + p) / 2, 1.0]

    def observe(self, x: float) -> None:
        q = self._heights
        if len(q) < 5:
            insort(q, x)
            return
        n = self._positions
        # Locate the marker cell containing x, extending the extremes.
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = bisect_left(q, x, 1, 4)
            if q[k] > x:
                k -= 1
            k = min(k, 3)
        for i in range(k + 1, 5):
            n[i] += 1
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Nudge interior markers toward their desired positions.
        for i in (1, 2, 3):
            d = self._desired[i] - n[i]
            if (d >= 1 and n[i + 1] - n[i] > 1) or (d <= -1 and n[i - 1] - n[i] < -1):
                step = 1 if d >= 0 else -1
                candidate = self._parabolic(i, step)
                if not (q[i - 1] < candidate < q[i + 1]):
                    candidate = self._linear(i, step)
                q[i] = candidate
                n[i] += step

    def _parabolic(self, i: int, d: int) -> float:
        q, n = self._heights, self._positions
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: int) -> float:
        q, n = self._heights, self._positions
        return q[i] + d * (q[i + d] - q[i]) / (n[i + d] - n[i])

    @property
    def value(self) -> Optional[float]:
        q = self._heights
        if not q:
            return None
        if len(q) < 5:
            # Still in the exact phase: empirical quantile of what we have.
            rank = self.p * (len(q) - 1)
            lo = int(math.floor(rank))
            hi = min(lo + 1, len(q) - 1)
            return q[lo] + (rank - lo) * (q[hi] - q[lo])
        return q[2]


class Histogram:
    """A distribution: cumulative fixed buckets plus streaming quantiles."""

    __slots__ = (
        "name", "description", "buckets", "_bucket_counts",
        "_count", "_sum", "_min", "_max", "_quantiles",
    )

    DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99)

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: Optional[Sequence[float]] = None,
        quantiles: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.description = description
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
        self._quantiles = {
            p: P2Quantile(p) for p in (quantiles or self.DEFAULT_QUANTILES)
        }

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._bucket_counts[bisect_left(self.buckets, value)] += 1
        for estimator in self._quantiles.values():
            estimator.observe(value)

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

    @property
    def tracked_quantiles(self) -> tuple[float, ...]:
        """The quantile points with dedicated P² estimators, ascending."""
        return tuple(sorted(self._quantiles))

    def quantile(self, p: float) -> Optional[float]:
        """The streaming estimate for ``p``, or a bucket interpolation.

        Quantiles tracked from construction use their P² estimator; any
        other ``p`` falls back to linear interpolation over the cumulative
        bucket counts (coarser, but available for free).
        """
        if p in self._quantiles:
            return self._quantiles[p].value
        return self._bucket_quantile(p)

    def _bucket_quantile(self, p: float) -> Optional[float]:
        if not self._count:
            return None
        target = p * self._count
        cumulative = 0
        previous_edge = self.min if self.min is not None else 0.0
        for edge, bucket_count in zip(self.buckets, self._bucket_counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= target:
                upper = min(edge, self._max)
                fraction = (target - cumulative) / bucket_count
                return previous_edge + fraction * (upper - previous_edge)
            cumulative += bucket_count
            previous_edge = min(edge, self._max)
        return self._max

    def bucket_counts(self) -> dict[float, int]:
        """Cumulative counts per upper bucket edge (Prometheus ``le``)."""
        out: dict[float, int] = {}
        running = 0
        for edge, bucket_count in zip(self.buckets, self._bucket_counts):
            running += bucket_count
            out[edge] = running
        return out

    def reset(self) -> None:
        self._bucket_counts = [0] * len(self.buckets)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._quantiles = {p: P2Quantile(p) for p in self._quantiles}

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "quantiles": {
                f"p{int(p * 100)}": self._quantiles[p].value for p in self._quantiles
            },
            "buckets": {
                ("+Inf" if math.isinf(edge) else repr(edge)): cum
                for edge, cum in self.bucket_counts().items()
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

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, description), Counter)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, description), Gauge)

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: Optional[Sequence[float]] = None,
        quantiles: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, description, buckets, quantiles), Histogram
        )

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def metrics(self) -> list[Metric]:
        """The live metric objects, sorted by name (exporters read these)."""
        with self._lock:
            return [metric for _, metric in sorted(self._metrics.items())]

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


def _cumulative_quantile(
    edges: Sequence[float],
    cumulative: Sequence[int],
    count: int,
    lo: Optional[float],
    hi: Optional[float],
    p: float,
) -> Optional[float]:
    """Linear interpolation over merged cumulative bucket counts.

    The merged-snapshot counterpart of :meth:`Histogram._bucket_quantile`:
    P² marker state cannot be combined across processes, but cumulative
    bucket counts on shared edges sum exactly, and a quantile interpolated
    from the merged buckets is correct to within one bucket's width.
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
      merged buckets (P² marker state does not compose across processes).

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
                        "quantile_keys": set(),
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
                entry["quantile_keys"].update(data.get("quantiles", {}))
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
        quantile_keys = sorted(entry.pop("quantile_keys"))
        count = entry["count"]
        entry["mean"] = entry["sum"] / count if count else 0.0
        entry["quantiles"] = {
            key: _cumulative_quantile(
                [e for e, _ in edges],
                [c for _, c in edges],
                count,
                entry["min"],
                entry["max"],
                int(key.lstrip("p")) / 100.0,
            )
            for key in quantile_keys
        }
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
