"""The serving pool's books: one state per submission, no processes.

:class:`Ledger` maps each trajectory id to its current submission, in one
state, and moves the :class:`PoolStats` counters only through ``submit``,
``deliver`` and ``write_off``: the state table and the identity they keep
are in docs/serving.md, "Delivery semantics". ``ServingPool`` drives it
under its lock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigError
from repro.obs import instrument as obs
from repro.obs.logging import get_logger
from repro.serve.protocol import result_message

__all__ = ["Ledger", "PoolStats", "Submission"]

_log = get_logger("serve.pool")

OUTSTANDING, COMPLETED, EXPIRED, SHED, WRITTEN_OFF = (
    "outstanding", "completed", "expired", "shed", "written_off"
)


@dataclass
class PoolStats:
    """Fleet-wide accounting over one pool lifetime."""

    submitted: int = 0
    completed: int = 0
    duplicates: int = 0
    unsolicited: int = 0
    """Results for an id this pool never took (a revived worker replaying
    another lifetime's journal): refused, counted only here."""
    journal_replayed: int = 0
    worker_deaths: int = 0
    segments: int = 0
    failed_segments: int = 0
    declared_lost: int = 0
    """Submissions written off when their shard was retired with no
    replacement worker, and settled by no result since."""
    reversed_write_offs: int = 0
    """Write-offs a late result settled: ``repro.serve.lost_total``
    counts every write-off, so it equals ``declared_lost`` plus this."""
    shed: int = 0
    """Requests refused by admission control — surfaced as typed
    ``OverloadError`` results, never lost."""
    expired: int = 0
    """Requests whose deadline passed while queued; the worker dropped
    them on dequeue without doing the work."""
    peak_queue_depth: int = 0
    """Deepest any single shard's outstanding work ever got (the bound
    the overload tests assert against ``max_queue_depth``)."""
    rungs: dict[str, int] = field(default_factory=dict)

    @property
    def lost(self) -> int:
        """Submissions not accounted for yet: ``outstanding +
        declared_lost`` (0 once a pool has drained cleanly)."""
        return self.submitted - self.completed - self.shed - self.expired


@dataclass(frozen=True)
class Submission:
    """One submission of one trajectory id, in one state. ``submitted_pc``
    (the pool's perf_counter) is the latency base, ``submit_epoch`` (wall
    clock) the cross-process queue-wait base; ``message`` is the result
    that settled it, or the shed result."""

    state: str
    shard: int
    submitted_pc: float = 0.0
    submit_epoch: float = 0.0
    message: Optional[dict] = None


class Ledger:
    """Per-submission bookkeeping for a pool of ``shards`` shards."""

    def __init__(self, shards: int, max_queue_depth: Optional[int] = None) -> None:
        self.stats = PoolStats()
        self.max_queue_depth = max_queue_depth
        self.depths = [0] * shards
        """Outstanding submissions per shard (queued plus the task its
        worker is on): admission and the gauge read it."""
        self.processed = {shard: 0 for shard in range(shards)}
        """Results accepted per shard."""
        self._current: dict[str, Submission] = {}

    @property
    def outstanding(self) -> int:
        return sum(self.depths)

    def ids(self, state: str, shard: Optional[int] = None) -> list[str]:
        """The ids whose current submission is in ``state`` (on ``shard``)."""
        return [
            i for i, s in self._current.items()
            if s.state == state and shard in (None, s.shard)
        ]

    def results(self) -> dict[str, dict]:
        """A fresh ``traj_id -> result message`` map: settled and shed."""
        return {i: s.message for i, s in self._current.items() if s.message}

    def _set_depth(self, shard: int, depth: int) -> None:
        self.depths[shard] = depth
        obs.gauge("repro.serve.queue_depth").set(self.outstanding)

    def submit(self, traj_id: str, shard: int) -> Optional[Submission]:
        """Admit ``traj_id`` to ``shard`` and return its submission, or
        shed it (None) when the shard holds ``max_queue_depth``
        outstanding ones. An id still outstanding is refused; any other
        starts anew."""
        current = self._current.get(traj_id)
        if current is not None and current.state == OUTSTANDING:
            raise ConfigError(
                f"trajectory {traj_id!r} is already outstanding on shard "
                f"{current.shard}; resubmit it once its result is in"
            )
        self.stats.submitted += 1
        obs.count("repro.serve.submitted_total")
        limit = self.max_queue_depth
        if limit is not None and self.depths[shard] >= limit:
            self.stats.shed += 1
            obs.count("repro.serve.shed_total")
            # Never reached a worker: no worker id, no dequeue time.
            shed = result_message(
                shard, None, traj_id, None,
                shed=True,
                error=f"OverloadError: shard {shard} queue full",
                error_type="OverloadError",
            )
            self._current[traj_id] = Submission(SHED, shard, message=shed)
            _log.warning(
                "request shed by admission control",
                extra={"data": {"traj_id": traj_id, "shard": shard}},
            )
            return None
        admitted = Submission(OUTSTANDING, shard, time.perf_counter(), time.time())
        self._current[traj_id] = admitted
        self._set_depth(shard, self.depths[shard] + 1)
        self.stats.peak_queue_depth = max(
            self.stats.peak_queue_depth, self.depths[shard]
        )
        return admitted

    def deliver(self, message: dict) -> Optional[Submission]:
        """Settle the id's current submission with a worker's result:
        completed, or expired when the worker dropped it past its
        deadline. Returns the submission as it stood (outstanding or
        written off) when the result is accepted; None when it is a
        duplicate or unsolicited, which changes nothing else."""
        traj_id = message["traj_id"]
        current = self._current.get(traj_id)
        if current is None:
            self.stats.unsolicited += 1
            return None
        if current.state == OUTSTANDING:
            self._set_depth(current.shard, self.depths[current.shard] - 1)
        elif current.state == WRITTEN_OFF:
            self.stats.declared_lost -= 1
            self.stats.reversed_write_offs += 1
        else:
            # At-least-once delivery: a replayed task can re-send a result
            # the dead worker already delivered. Exactly-once is restored
            # here, by id.
            self.stats.duplicates += 1
            obs.count("repro.serve.duplicate_results_total")
            return None
        expired = bool(message.get("expired"))
        self._current[traj_id] = replace(
            current, state=EXPIRED if expired else COMPLETED, message=message
        )
        stats = self.stats
        if expired:
            stats.expired += 1
        else:
            stats.completed += 1
            obs.count("repro.serve.results_total")
        shard = message["shard"]
        self.processed[shard] = self.processed.get(shard, 0) + 1
        if message["replayed"]:
            stats.journal_replayed += 1
        stats.segments += message["segments"]
        stats.failed_segments += message["failed"]
        for rung, count in message["rungs"].items():
            stats.rungs[rung] = stats.rungs.get(rung, 0) + count
        return current

    def write_off(self, shard: int) -> int:
        """Declare a retired shard's outstanding submissions lost, so
        neither ``drain()`` nor the depth waits for them; returns how
        many. A result that still arrives for one settles it."""
        if not self.depths[shard]:
            return 0
        lost = self.ids(OUTSTANDING, shard)
        for traj_id in lost:
            self._current[traj_id] = replace(self._current[traj_id], state=WRITTEN_OFF)
        self._set_depth(shard, 0)
        self.stats.declared_lost += len(lost)
        obs.count("repro.serve.lost_total", len(lost))
        _log.error(
            "shard retired with in-flight work; declaring it lost",
            extra={"data": {"shard": shard, "lost": len(lost), "ids": lost[:10]}},
        )
        return len(lost)
