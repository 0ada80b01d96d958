"""A from-scratch DBSCAN implementation (Ester et al., KDD 1996).

KAMEL's detokenization module (Section 7) runs DBSCAN over the GPS points
inside each hexagonal token to discover the per-direction road clusters
whose centroids replace tokens at detokenization time. Token populations
are small (tens to a few thousand points), so this implementation favours
clarity: region queries use a uniform bucket index for the default
Euclidean metric and fall back to a linear scan for custom metrics.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from typing import Callable, Optional, Sequence

import numpy as np

NOISE = -1
"""Label assigned to points that belong to no cluster."""


class _BucketIndex:
    """Uniform-grid index answering epsilon-neighbourhood queries."""

    def __init__(self, data: np.ndarray, eps: float) -> None:
        self._data = data
        self._eps = eps
        self._cell = eps if eps > 0 else 1.0
        self._buckets: dict[tuple[int, ...], list[int]] = defaultdict(list)
        for i, row in enumerate(data):
            self._buckets[self._key(row)].append(i)

    def _key(self, row: np.ndarray) -> tuple[int, ...]:
        return tuple(int(math.floor(v / self._cell)) for v in row)

    def query(self, i: int) -> list[int]:
        """Indices of all points within ``eps`` of point ``i`` (incl. i)."""
        row = self._data[i]
        key = self._key(row)
        dims = len(key)
        candidates: list[int] = []
        # Visit the 3^d adjacent buckets.
        offsets: list[tuple[int, ...]] = [()]
        for _ in range(dims):
            offsets = [o + (d,) for o in offsets for d in (-1, 0, 1)]
        for off in offsets:
            bucket = tuple(k + d for k, d in zip(key, off))
            candidates.extend(self._buckets.get(bucket, ()))
        out = []
        for j in candidates:
            if float(np.linalg.norm(self._data[j] - row)) <= self._eps:
                out.append(j)
        return out


def dbscan_labels(
    data: Sequence[Sequence[float]] | np.ndarray,
    eps: float,
    min_samples: int,
    metric: Optional[Callable[[np.ndarray, np.ndarray], float]] = None,
) -> np.ndarray:
    """Cluster ``data`` and return an integer label per point.

    Cluster labels are ``0, 1, 2, ...`` in discovery order; noise points
    get :data:`NOISE`. ``metric`` overrides the Euclidean distance (the
    bucket index is bypassed in that case).
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples!r}")
    points = np.asarray(data, dtype=float)
    n = len(points)
    labels = np.full(n, NOISE, dtype=int)
    if n == 0:
        return labels

    if metric is None:
        index = _BucketIndex(points, eps)

        def region_query(i: int) -> list[int]:
            return index.query(i)

    else:

        def region_query(i: int) -> list[int]:
            return [j for j in range(n) if metric(points[i], points[j]) <= eps]

    visited = np.zeros(n, dtype=bool)
    cluster = 0
    for i in range(n):
        if visited[i]:
            continue
        visited[i] = True
        seeds = region_query(i)
        if len(seeds) < min_samples:
            continue  # stays noise unless later absorbed as a border point
        labels[i] = cluster
        queue = deque(seeds)
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster  # border point
            if visited[j]:
                continue
            visited[j] = True
            labels[j] = cluster
            j_neighbours = region_query(j)
            if len(j_neighbours) >= min_samples:
                queue.extend(j_neighbours)
        cluster += 1
    return labels
