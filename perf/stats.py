"""Pure helpers: percentiles, spreads, self time, arrival schedules, digests.

No import of ``repro`` here, so ``python -m pytest perf/tests`` needs only
the standard library and numpy.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import struct
from typing import Iterable, Optional, Sequence

MIN_BEYOND = 10
"""A percentile is reported only when at least this many samples lie
beyond it (choosing-metrics, section 1): p95 needs 200 samples, which
is what every latency-bearing pass sends."""


def percentile(values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation.

    Raises ``ValueError`` when fewer than ``min_beyond`` samples lie
    beyond it: a tail percentile read off a handful of samples is one
    slow request, not a distribution.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q!r}")
    n = len(values)
    beyond = int(n * (1.0 - q) + 1e-9)
    if n == 0 or beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; need {min_beyond}"
        )
    ordered = sorted(values)
    rank = q * (n - 1)
    low = int(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them
    — the same call the benchmark driver makes. A single value is its
    own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when the
    median is 0 or there is one value)."""
    q1, q2, q3 = quartiles(values)
    return abs(q3 - q1) / abs(q2) if q2 else 0.0


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a
    root. Children of one parent are assumed not to overlap each other
    (one thread), so covered time is the sum of child durations, clamped
    so clock jitter never yields a negative self time.
    """
    covered = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    return [
        max(0.0, (ends[i] - starts[i]) - covered[i]) for i in range(len(starts))
    ]


def arrival_schedule(n: int, rate_per_s: float, seed: int) -> list[float]:
    """Due times (seconds from the start of the pass) of ``n`` requests
    of an open-loop Poisson stream: seeded exponential gaps, so one seed
    gives one schedule on every run."""
    if n < 0 or rate_per_s <= 0:
        raise ValueError("need n >= 0 and rate_per_s > 0")
    rng = random.Random(seed)
    due, out = 0.0, []
    for _ in range(n):
        due += rng.expovariate(rate_per_s)
        out.append(due)
    return out


def request_order(n: int, seed: int) -> list[int]:
    """The seeded order in which the ``n`` pool trajectories are sent."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


def coordinate_digest(outputs: Iterable[tuple[str, Iterable[tuple[float, float, Optional[float]]]]]) -> str:
    """SHA-256 over ``(traj_id, [(x, y, t), ...])`` in the given order,
    coordinates as IEEE doubles: equal digests mean bit-identical output."""
    h = hashlib.sha256()
    for traj_id, points in outputs:
        h.update(traj_id.encode())
        h.update(b"\0")
        for x, y, t in points:
            h.update(struct.pack("<ddd", x, y, float("nan") if t is None else t))
    return h.hexdigest()
