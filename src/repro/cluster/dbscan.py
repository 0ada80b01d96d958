"""A from-scratch DBSCAN implementation (Ester et al., KDD 1996).

KAMEL's detokenization module (Section 7) runs DBSCAN over the GPS points
inside each hexagonal token to discover the per-direction road clusters
whose centroids replace tokens at detokenization time. Token populations
are small (tens to a few thousand points), so for the default Euclidean
metric every point's neighbourhood is found up front by one blockwise
pairwise-distance pass (memory bounded by ``_BLOCK_ROWS`` rows at a
time); a custom metric falls back to a linear scan per region query.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Sequence

import numpy as np

NOISE = -1
"""Label assigned to points that belong to no cluster."""


_BLOCK_ROWS = 256
"""Rows per block of the pairwise distance pass (bounds its memory)."""

_BOUNDARY_REL = 1e-9
"""Distances this close to ``eps`` (relative) are re-decided exactly."""


def _neighbourhoods(points: np.ndarray, eps: float) -> list[np.ndarray]:
    """Every point's Euclidean ``eps``-neighbourhood (itself included).

    Distances are taken blockwise, ``_BLOCK_ROWS`` rows against all
    points at a time. The vectorised sum of squares may differ from
    ``np.linalg.norm`` in its last bits, so a pair within
    ``_BOUNDARY_REL * eps`` of the boundary is decided by ``np.linalg.norm``
    on that pair: exactly the test a per-pair scan makes.
    """
    n = len(points)
    margin = _BOUNDARY_REL * eps
    out: list[np.ndarray] = []
    for lo in range(0, n, _BLOCK_ROWS):
        block = points[lo : lo + _BLOCK_ROWS]
        sq = np.zeros((len(block), n))
        for k in range(points.shape[1]):
            diff = points[:, k] - block[:, k, None]
            sq += diff * diff
        dist = np.sqrt(sq)
        within = dist <= eps
        for r, c in zip(*np.nonzero(np.abs(dist - eps) <= margin)):
            i = lo + r
            within[r, c] = float(np.linalg.norm(points[c] - points[i])) <= eps
        out.extend(np.flatnonzero(row) for row in within)
    return out


def dbscan_labels(
    data: Sequence[Sequence[float]] | np.ndarray,
    eps: float,
    min_samples: int,
    metric: Optional[Callable[[np.ndarray, np.ndarray], float]] = None,
) -> np.ndarray:
    """Cluster ``data`` and return an integer label per point.

    Cluster labels are ``0, 1, 2, ...`` in discovery order; noise points
    get :data:`NOISE`. ``metric`` overrides the Euclidean distance (each
    region query is then a linear scan calling it).
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
        region_query = _neighbourhoods(points, eps).__getitem__
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
