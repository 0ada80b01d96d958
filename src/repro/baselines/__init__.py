"""The paper's comparison methods (Section 8, "Baselines").

* :class:`LinearImputer` — straight-line interpolation (the baseline; by
  the paper's definition its failure rate is 100 %).
* :class:`TrImpute` — reimplementation of the crowd-wisdom, network-free
  state of the art (Elshrif et al., SIGSPATIAL 2022): a guided walk over
  historical GPS point density.
* :class:`HmmMapMatcher` — HMM map matching + shortest-path imputation,
  the road-network-equipped reference (not a competitor: it is given the
  ground-truth network that KAMEL never sees).
"""

from repro.baselines.linear import LinearImputer
from repro.baselines.trimpute import TrImpute
from repro.baselines.mapmatch import HmmMapMatcher

__all__ = [
    "HmmMapMatcher",
    "LinearImputer",
    "TrImpute",
]
