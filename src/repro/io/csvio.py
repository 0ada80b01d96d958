"""CSV input/output for WGS84 trajectory data.

The interchange format is the simplest thing a taxi data dump provides:
one row per GPS fix with a trajectory id, latitude, longitude, and a
timestamp. :func:`read_latlon_csv` groups rows into per-trajectory record
lists (ordered by timestamp); :func:`write_latlon_csv` writes imputation
results back, flagging the newly inserted points.
"""

from __future__ import annotations

import csv
import math
import pathlib
from typing import Sequence, Union

from repro.errors import EmptyInputError, KamelError
from repro.geo import LocalProjection, Trajectory
from repro.geo.adapter import LatLonRecord

PathLike = Union[str, pathlib.Path]


def read_latlon_csv(path: PathLike) -> list[tuple[str, list[LatLonRecord]]]:
    """Parse a CSV of GPS fixes into per-trajectory record lists.

    The columns are the ones :func:`write_latlon_csv` writes: ``traj_id``,
    ``lat``, ``lon`` and an optional ``t``. Rows are grouped by
    ``traj_id`` (first-appearance order) and sorted by timestamp within
    each trajectory; a missing/empty time field
    yields ``None`` timestamps and preserves file order. A non-finite or
    out-of-range coordinate, or a non-finite timestamp, is a
    :class:`KamelError` naming the file and line.
    """
    path = pathlib.Path(path)
    grouped: dict[str, list[LatLonRecord]] = {}
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise EmptyInputError(f"{path} has no header row")
        missing = {"traj_id", "lat", "lon"} - set(reader.fieldnames)
        if missing:
            raise KamelError(f"{path} lacks required columns: {sorted(missing)}")
        has_time = "t" in reader.fieldnames
        for line_no, row in enumerate(reader, start=2):
            try:
                lat = float(row["lat"])
                lon = float(row["lon"])
            except (TypeError, ValueError) as exc:
                raise KamelError(f"{path}:{line_no}: bad coordinate") from exc
            # float() accepts "nan" and "inf"; the range test rejects both.
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                raise KamelError(f"{path}:{line_no}: bad coordinate")
            t = None
            if has_time and row["t"] not in (None, ""):
                try:
                    t = float(row["t"])
                except ValueError as exc:
                    raise KamelError(f"{path}:{line_no}: bad timestamp") from exc
                if not math.isfinite(t):
                    raise KamelError(f"{path}:{line_no}: bad timestamp")
            grouped.setdefault(row["traj_id"], []).append((lat, lon, t))
    if not grouped:
        raise EmptyInputError(f"{path} contains no data rows")
    out = []
    for traj_id, records in grouped.items():
        if all(r[2] is not None for r in records):
            records = sorted(records, key=lambda r: r[2])
        out.append((traj_id, records))
    return out


def write_latlon_csv(
    path: PathLike,
    trajectories: Sequence[Trajectory],
    projection: LocalProjection,
    imputed_flags: Sequence[Sequence[bool]] = (),
) -> None:
    """Write trajectories back as WGS84 rows.

    ``imputed_flags`` (parallel to ``trajectories``, one bool per point)
    populates an ``imputed`` column marking points the system inserted;
    omitted flags default to 0.
    """
    path = pathlib.Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["traj_id", "lat", "lon", "t", "imputed"])
        for index, trajectory in enumerate(trajectories):
            flags = (
                imputed_flags[index]
                if index < len(imputed_flags)
                else [False] * len(trajectory)
            )
            for p, flag in zip(trajectory.points, flags):
                lat, lon = projection.to_latlon(p)
                writer.writerow(
                    [
                        trajectory.traj_id,
                        f"{lat:.7f}",
                        f"{lon:.7f}",
                        "" if p.t is None else f"{p.t:.3f}",
                        int(bool(flag)),
                    ]
                )


def imputed_point_flags(sparse: Trajectory, dense: Trajectory) -> list[bool]:
    """Flag which points of ``dense`` were inserted by imputation.

    Walks both point sequences in order; points of ``dense`` that match
    the next sparse anchor (by coordinates) are original fixes.
    """
    flags: list[bool] = []
    anchors = sparse.points
    cursor = 0
    for p in dense.points:
        if (
            cursor < len(anchors)
            and p.x == anchors[cursor].x
            and p.y == anchors[cursor].y
        ):
            flags.append(False)
            cursor += 1
        else:
            flags.append(True)
    return flags
