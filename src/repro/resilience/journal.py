"""Streaming checkpoint/recovery: write-ahead journal + dead-letter store.

Online imputation loses work two ways: a crash mid-batch drops
everything in flight, and one malformed trajectory can kill the whole
stream.  This module closes both holes with two append-only JSONL files
(the serve worker journals; the streaming service quarantines):

* :class:`StreamJournal` — a write-ahead journal.  ``begin`` records the
  full trajectory payload *before* processing starts; ``done`` marks it
  finished.  After a crash, :meth:`StreamJournal.pending` replays the
  file and returns exactly the trajectories that were begun but never
  finished — resume reprocesses only those, and the imputation path is
  deterministic, so the resumed output is identical to an uninterrupted
  run.
* :class:`QuarantineStore` — the dead-letter file.  Inputs rejected by
  validation land here with a machine-readable reason instead of an
  exception escaping the stream.

Both tolerate a torn final line (the crash happened mid-write): replay
skips any line that does not parse.  Records are self-contained JSON, so
the files double as an audit log readable with ``jq``.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from typing import Iterator, Optional, TextIO, Union

from repro.geo import Point, Trajectory
from repro.obs.logging import get_logger

__all__ = [
    "StreamJournal",
    "QuarantineStore",
    "trajectory_to_payload",
    "trajectory_from_payload",
]

_log = get_logger("resilience.journal")

PathLike = Union[str, os.PathLike]


# -- trajectory payloads ------------------------------------------------------


def trajectory_to_payload(trajectory: Trajectory) -> dict:
    """A JSON-safe dict round-trippable via :func:`trajectory_from_payload`."""
    return {
        "traj_id": trajectory.traj_id,
        "points": [[p.x, p.y, p.t] for p in trajectory.points],
    }


def trajectory_from_payload(payload: dict) -> Trajectory:
    return Trajectory(
        payload["traj_id"],
        tuple(Point(x, y, t) for x, y, t in payload["points"]),
    )


def _read_records(path: pathlib.Path) -> Iterator[dict]:
    """Parse a JSONL file, skipping torn or corrupt lines."""
    if not path.exists():
        return
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A crash mid-append leaves at most one torn line; skip it
                # (the work it described replays as pending or is re-sent).
                _log.warning(
                    "skipping corrupt journal line",
                    extra={"data": {"path": str(path), "line": lineno}},
                )
                continue
            if isinstance(record, dict):
                yield record


class _AppendFile:
    """A lazily opened, line-buffered append handle with optional fsync."""

    def __init__(self, path: PathLike, sync: bool = False) -> None:
        self.path = pathlib.Path(path)
        self.sync = sync
        self._handle: Optional[TextIO] = None

    def append(self, record: dict) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._handle.flush()
        if self.sync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class StreamJournal:
    """A serve worker's write-ahead journal (one JSONL file).

    Events: ``{"event": "begin", "traj_id": ..., "trajectory": {...}}``
    before processing, ``{"event": "done", "traj_id": ...}`` after (a
    quarantined input is also ``done`` — it was *handled*, with the
    details in the quarantine store).  ``sync=True`` fsyncs every append
    (durable against power loss, ~10× slower); the default survives
    process crashes, which is the failure mode the chaos suite injects.
    """

    def __init__(self, path: PathLike, sync: bool = False) -> None:
        self._file = _AppendFile(path, sync)
        self.begun = 0
        self.finished = 0

    @property
    def path(self) -> pathlib.Path:
        return self._file.path

    # -- writing -----------------------------------------------------------

    def begin(self, trajectory: Trajectory) -> None:
        self._file.append(
            {
                "event": "begin",
                "traj_id": trajectory.traj_id,
                "trajectory": trajectory_to_payload(trajectory),
            }
        )
        self.begun += 1

    def done(self, traj_id: str) -> None:
        self._file.append({"event": "done", "traj_id": traj_id})
        self.finished += 1

    def close(self) -> None:
        self._file.close()

    # -- recovery ----------------------------------------------------------

    def pending(self) -> list[Trajectory]:
        """Trajectories begun but never marked done, in journal order.

        Re-reads the file, so it reflects prior incarnations of the
        process — this is the crash-recovery entry point.
        """
        begun: dict[str, dict] = {}
        order: list[str] = []
        for record in _read_records(self.path):
            traj_id = record.get("traj_id")
            if traj_id is None:
                continue
            if record.get("event") == "begin" and "trajectory" in record:
                if traj_id not in begun:
                    order.append(traj_id)
                begun[traj_id] = record["trajectory"]
            elif record.get("event") == "done":
                begun.pop(traj_id, None)
        out: list[Trajectory] = []
        for traj_id in order:
            payload = begun.get(traj_id)
            if payload is None:
                continue
            try:
                out.append(trajectory_from_payload(payload))
            except (KeyError, TypeError, ValueError):
                _log.warning(
                    "unreadable journal payload",
                    extra={"data": {"traj_id": traj_id}},
                )
        return out

    def __repr__(self) -> str:
        return f"StreamJournal({self.path}, begun={self.begun}, done={self.finished})"


@dataclass(frozen=True)
class QuarantineEntry:
    """One dead-lettered input."""

    traj_id: str
    reason: str
    trajectory: Optional[Trajectory]


class QuarantineStore:
    """The dead-letter file for inputs the service refused to process."""

    def __init__(self, path: PathLike, sync: bool = False) -> None:
        self._file = _AppendFile(path, sync)
        self.added = 0

    @property
    def path(self) -> pathlib.Path:
        return self._file.path

    def add(self, trajectory: Trajectory, reason: str) -> None:
        self._file.append(
            {
                "traj_id": trajectory.traj_id,
                "reason": reason,
                "trajectory": trajectory_to_payload(trajectory),
            }
        )
        self.added += 1
        _log.warning(
            "trajectory quarantined",
            extra={"data": {"trajectory": trajectory.traj_id, "reason": reason}},
        )

    def entries(self) -> list[QuarantineEntry]:
        out: list[QuarantineEntry] = []
        for record in _read_records(self.path):
            if "traj_id" not in record or "reason" not in record:
                continue
            trajectory: Optional[Trajectory] = None
            payload = record.get("trajectory")
            if payload is not None:
                try:
                    trajectory = trajectory_from_payload(payload)
                except (KeyError, TypeError, ValueError):
                    trajectory = None
            out.append(QuarantineEntry(record["traj_id"], record["reason"], trajectory))
        return out

    def __len__(self) -> int:
        return len(self.entries())

    def close(self) -> None:
        self._file.close()

    def __repr__(self) -> str:
        return f"QuarantineStore({self.path}, added={self.added})"
