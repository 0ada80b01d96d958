"""Trajectory-based map inference: KAMEL's motivating application.

The paper positions KAMEL "as a pre-processing step for map inference
applications" — reconstructing an unknown road network from trajectories
(Biagioni & Eriksson 2012 and the industrial efforts cited in Section 1).
This package provides a compact grid-density map-inference algorithm plus
the GEO-style evaluation that compares an inferred map against the true
network, enabling the end-to-end extension experiment: *how much better
does map inference get when the trajectories are KAMEL-imputed first?*
(``benchmarks/bench_map_inference.py``).
"""

from repro.mapinference.inference import (
    InferredMap,
    TrajectoryMapInference,
)
from repro.mapinference.evaluation import MapScores, evaluate_inferred_map

__all__ = [
    "InferredMap",
    "MapScores",
    "TrajectoryMapInference",
    "evaluate_inferred_map",
]
