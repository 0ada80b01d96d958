"""Trajectory preprocessing: what the online service runs before KAMEL.

Real GPS feeds are messier than "sparse but clean": they carry corrupted
fixes and long recording gaps that should split a file into separate
trips. This package provides the two cleaning stages that
:class:`repro.core.streaming.StreamingImputationService` runs:

* :func:`remove_outliers` — speed-gated removal of impossible jumps;
* :func:`split_by_time_gap` — cut a point stream into trips.

Both stages consume :class:`repro.geo.Trajectory`, so they compose ahead
of :meth:`repro.core.Kamel.fit` / ``impute``.
"""

from repro.preprocess.cleaning import remove_outliers, split_by_time_gap

__all__ = ["remove_outliers", "split_by_time_gap"]
